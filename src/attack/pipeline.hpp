// End-to-end evaluation pipeline (Sec. 5 attack setup).
//
// For one benchmark and one locking algorithm:
//   * lock `testLocks` fresh clones of the benchmark with different keys
//     (key budget = 75 % of the design's lockable operations);
//   * run the SnapShot attack against every locked sample;
//   * aggregate KPA statistics.
#pragma once

#include <string>

#include "attack/snapshot.hpp"

namespace rtlock::attack {

struct EvaluationConfig {
  int testLocks = 10;               // locked samples per benchmark (paper: 10)
  double keyBudgetFraction = 0.75;  // of the original design's lockable ops
  SnapshotConfig snapshot;
  /// Off-by-default safety net: simulate each locked sample against the
  /// original under its correct key and count mismatching samples in
  /// EvaluationResult::functionalFailures.  Uses an independent fixed-seed
  /// stimulus stream, so enabling it changes no KPA/metric output bit.  The
  /// SnapShot attack itself is structural/ML and never simulates.
  bool verifyFunctional = false;
};

struct EvaluationResult {
  std::string benchmark;
  lock::Algorithm algorithm = lock::Algorithm::AssureSerial;
  int samples = 0;
  double meanKpa = 0.0;
  double minKpa = 0.0;
  double maxKpa = 0.0;
  double meanKeyBits = 0.0;        // attacked (operation) key bits per sample
  double meanBitsUsed = 0.0;       // key bits consumed by locking (ERA may exceed budget)
  double meanGlobalMetric = 0.0;   // M^g_sec of the locked samples
  double meanRestrictedMetric = 0.0;
  double meanTrainingRows = 0.0;   // harvested training rows (before auto-ml's row cap)
  /// Samples whose locked module misbehaved under the correct key; always 0
  /// unless config.verifyFunctional found a locking bug.
  int functionalFailures = 0;
};

/// Evaluates `algorithm` on one clone of `original`.  The `testLocks`
/// samples run serially in sample order: sample i locks the clone, attacks
/// it and restores it through the engine's undo path, drawing only from its
/// own Rng substream.  Grid drivers fan out over (benchmark, algorithm)
/// cells, so this loop never opens a pool of its own.
///
/// Contract -------------------------------------------------------------------
/// Ownership: `original` and `table` are borrowed const for the duration of
///   the call and never mutated — all locking happens on a private clone
///   that dies with the call.
/// Determinism: the result is a pure function of (original, algorithm,
///   table, config, rng state).  `rng` advances by exactly one fork per
///   call regardless of sample count (tests/integration/determinism_test.cpp
///   pins this), so a grid that hands cell k the stream as it stood before
///   the k-th fork reproduces a serial loop over one shared Rng.
/// Thread-safety: safe to call concurrently with distinct `rng` objects.
///   Do not share one Rng across concurrent callers.
[[nodiscard]] EvaluationResult evaluateBenchmark(const rtl::Module& original,
                                                 const std::string& benchmarkName,
                                                 lock::Algorithm algorithm,
                                                 const lock::PairTable& table,
                                                 const EvaluationConfig& config,
                                                 support::Rng& rng);

}  // namespace rtlock::attack
