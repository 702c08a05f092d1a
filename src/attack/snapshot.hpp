// SnapShot attack adapted to RTL locking (Fig. 2 of the paper).
//
// Oracle-less threat model: the attacker holds (a perfect reconstruction of)
// the locked RTL, knows the locking algorithm and the key-input pins, but has
// no working chip.  The attack:
//
//  1. extracts the target's localities — one [C1, C2] pair per key bit;
//  2. builds a training set by self-referencing: relocking the target
//     `relockRounds` times with fresh random ASSURE locks whose key bits are
//     known, extracting the new localities, and undoing the relock.  When
//     no lockable operation and no key mux sit inside a lockable
//     operation's operands, the rounds run tree-free over per-kind pool
//     counts (attack/pool_relock.hpp) and the rows auto-ml keeps fold
//     straight from their compact store into auto-ml's folds.  Other
//     targets fall back to the LockEngine + LocalityHarvester path
//     (attack/harvest.hpp), which also stays the oracle the tree-free
//     rounds must match row for row;
//  3. trains an auto-ml-selected classifier on (locality -> key bit);
//  4. predicts every target key bit and reports the Key Prediction Accuracy.
//
// KPA of 50 % equals random guessing (the attacker learns nothing).
#pragma once

#include <string>

#include "attack/locality.hpp"
#include "core/algorithms.hpp"
#include "ml/automl.hpp"

namespace rtlock::attack {

struct SnapshotConfig {
  /// Training relock rounds per target (paper setup: 1000).
  int relockRounds = 100;
  /// Training key budget as a fraction of the target's current operations
  /// (paper setup: 0.75).
  double relockBudgetFraction = 0.75;
  LocalityConfig locality;
  ml::AutoMlConfig automl;
};

struct SnapshotResult {
  int keyBits = 0;                 // attacked key bits
  int correct = 0;                 // correctly predicted
  double kpa = 0.0;                // 100 * correct / keyBits
  std::string modelName;           // auto-ml winner
  double cvAccuracy = 0.0;         // winner's cross-validated accuracy
  std::size_t trainingRows = 0;    // harvested training localities (before auto-ml's row cap)
  std::vector<int> predictions;    // per key bit (index aligned with records)
};

/// Runs the attack against a locked module.  `targetRecords` is the locking
/// ground truth used only for scoring (the classifier never sees it).
///
/// Contract -------------------------------------------------------------------
/// Ownership: `lockedTarget` is borrowed mutably — fallback relock rounds
///   edit it in place — and is restored bit-exactly before returning (also
///   on throw the undo path unwinds cleanly); tree-free rounds never touch
///   it.  The caller keeps exclusive ownership;
///   nothing retains a pointer past the call.
/// Determinism: (lockedTarget, targetRecords, table, config, rng state)
///   fully determines the result, including the auto-ml winner — model
///   selection runs under a row-count budget (ml::AutoMlConfig), never
///   wall-clock, so outcomes cannot differ across machines.
/// Thread-safety: the attack itself is single-threaded over its target;
///   concurrent attacks need distinct target modules and distinct Rngs
///   (attack repeats in the CLI clone per repeat — the sharding pattern).
[[nodiscard]] SnapshotResult snapshotAttack(rtl::Module& lockedTarget,
                                            const std::vector<lock::LockRecord>& targetRecords,
                                            const lock::PairTable& table,
                                            const SnapshotConfig& config, support::Rng& rng);

}  // namespace rtlock::attack
