// SnapShot attack adapted to RTL locking (Fig. 2 of the paper).
//
// Oracle-less threat model: the attacker holds (a perfect reconstruction of)
// the locked RTL, knows the locking algorithm and the key-input pins, but has
// no working chip.  The attack:
//
//  1. extracts the target's localities — one [C1, C2] pair per key bit;
//  2. builds a training set by self-referencing: relocking the target
//     `relockRounds` times with fresh random ASSURE locks whose key bits are
//     known, extracting the new localities, and undoing the relock.  The
//     rounds run tree-free for every target, over an index arena of its
//     lockable operations and key muxes that follows nesting, dummy clones
//     and the tree path's tie order (attack/pool_relock.hpp), and the rows
//     auto-ml keeps fold straight from their compact store into auto-ml's
//     folds.  The LockEngine + LocalityHarvester tree path
//     (attack/harvest.hpp) stays the oracle the rounds must match row for
//     row;
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
/// Ownership: `lockedTarget` is borrowed read-only for the call; nothing
///   retains a reference past it, and the target is never edited.
/// Determinism: (lockedTarget, targetRecords, table, config, rng state)
///   fully determines the result, including the auto-ml winner — model
///   selection runs under a row-count budget (ml::AutoMlConfig), never
///   wall-clock, so outcomes cannot differ across machines.
/// Thread-safety: the attack itself is single-threaded; concurrent attacks
///   may share a target but need distinct Rngs (attack repeats in the CLI
///   share the target and take one substream each).
[[nodiscard]] SnapshotResult snapshotAttack(const rtl::Module& lockedTarget,
                                            const std::vector<lock::LockRecord>& targetRecords,
                                            const lock::PairTable& table,
                                            const SnapshotConfig& config, support::Rng& rng);

}  // namespace rtlock::attack
