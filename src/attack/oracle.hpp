// Oracle-guided key recovery — the paper's open question (Sec. 5.1,
// "Limitations and opportunities": "Are the locking algorithms resilient to
// oracle-guided attacks?").
//
// Threat model change: unlike SnapShot (oracle-less), the attacker here also
// owns a working chip (the oracle) and can compare its I/O behaviour against
// the locked RTL under hypothesis keys.  The attack probes one key bit at a
// time: for randomized settings of all other bits it measures output
// corruption with the probed bit at 0 and at 1, and keeps the value with the
// lower corruption mass.  Operation locking has no SAT-style protection, so
// the per-bit corruption signal is strong regardless of operation balance —
// learning resilience does not imply oracle resilience.
#pragma once

#include "core/engine.hpp"
#include "sim/harness.hpp"

namespace rtlock::attack {

struct OracleAttackConfig {
  /// Hill-climbing passes over the key bits per restart.
  int trials = 6;
  /// Independent random restarts (XOR-heavy designs have pairwise-cancelling
  /// local minima; restarts escape them).
  int restarts = 4;
  /// Stimulus vectors per corruption measurement.
  int vectors = 8;
  /// Must exceed the design's pipeline depth or deep bits stay unobservable.
  int cyclesPerVector = 24;
};

struct OracleAttackResult {
  int keyBits = 0;
  int correct = 0;
  double kpa = 0.0;
  std::vector<int> predictions;  // aligned with `truth`
};

/// Recovers the key bits listed in `truth` by corruption probing.  `oracle`
/// is the unlocked golden design (stands in for the working chip).  The
/// ground-truth values in `truth` are used only for scoring.
[[nodiscard]] OracleAttackResult oracleGuidedAttack(const rtl::Module& oracle,
                                                    const rtl::Module& locked,
                                                    const std::vector<lock::LockRecord>& truth,
                                                    const OracleAttackConfig& config,
                                                    support::Rng& rng);

}  // namespace rtlock::attack
