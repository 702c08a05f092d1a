#include "attack/snapshot.hpp"

#include <optional>
#include <unordered_map>

#include "attack/harvest.hpp"
#include "attack/pool_relock.hpp"

namespace rtlock::attack {

namespace {

/// Step 2 on the expression tree, for targets outside PoolRelocker's
/// precondition.  Each round applies a fresh random-ASSURE relock with known
/// key bits, harvests the new localities, and rolls the module back.
/// Harvesting is incremental — the engine's lock observer records each new
/// key mux as it is inserted, so a round costs O(relock budget) instead of
/// O(module) (attack/harvest.hpp; extractLocalities remains the oracle).
ml::Dataset relockOnTree(rtl::Module& target, const lock::PairTable& table,
                         const SnapshotConfig& config, support::Rng& rng) {
  lock::LockEngine engine{target, table};
  LocalityHarvester harvester{engine, config.locality};
  ml::Dataset training{featureCount(config.locality)};
  for (int round = 0; round < config.relockRounds; ++round) {
    const std::size_t checkpoint = engine.checkpoint();
    const int budget = lock::keyBudget(config.relockBudgetFraction, engine.totalLockableOps());
    harvester.beginRound();
    // Summary detail: the relock report is discarded, so skip the per-bit
    // metric trace (two ODT scans per lock).
    (void)lock::assureRandomLock(engine, budget, rng, lock::ReportDetail::Summary);
    harvester.harvestInto(training);
    engine.undoTo(checkpoint);
    if (round == 0) {
      // Rounds produce near-identical row counts; one up-front reservation
      // keeps the remaining appends growth-free.
      training.reserveRows(training.size() * static_cast<std::size_t>(config.relockRounds - 1));
    }
  }
  return training;
}

}  // namespace

SnapshotResult snapshotAttack(rtl::Module& lockedTarget,
                              const std::vector<lock::LockRecord>& targetRecords,
                              const lock::PairTable& table, const SnapshotConfig& config,
                              support::Rng& rng) {
  RTLOCK_REQUIRE(config.relockRounds > 0, "the attack needs at least one relocking round");

  // Step 1: target localities, keyed by key-bit index (one full walk — the
  // only O(module) pass the attack performs).
  const std::vector<Locality> targetLocalities =
      extractLocalities(lockedTarget, config.locality);
  std::unordered_map<int, const ml::FeatureRow*> targetFeatures;
  targetFeatures.reserve(targetLocalities.size());
  for (const Locality& locality : targetLocalities) {
    targetFeatures.emplace(locality.keyIndex, &locality.features);
  }

  // Step 2: self-referencing training set, tree-free when the target's
  // lockable operations never nest (attack/pool_relock.hpp).  Step 3:
  // model selection + training.
  std::size_t harvested = 0;
  ml::AutoMlResult automl;
  std::optional<PoolRelocker> relocker = PoolRelocker::build(lockedTarget, table, config.locality);
  if (relocker.has_value()) {
    const int budget = lock::keyBudget(config.relockBudgetFraction, relocker->totalLockableOps());
    relocker->reserveRows(static_cast<std::size_t>(budget) *
                          static_cast<std::size_t>(config.relockRounds));
    for (int round = 0; round < config.relockRounds; ++round) relocker->relockRound(budget, rng);
    harvested = relocker->rowCount();
    // The kept rows fold straight from the row store: no Dataset of them is
    // built, and auto-ml gets the folds autoSelect(Dataset) would build.
    automl = ml::autoSelect(
        relocker->foldAggregates(config.automl.maxTrainingRows, config.automl.folds, rng),
        config.automl, rng);
  } else {
    const ml::Dataset training = relockOnTree(lockedTarget, table, config, rng);
    harvested = training.size();
    automl = ml::autoSelect(training, config.automl, rng);
  }

  // Step 4: per-bit prediction and KPA scoring.
  SnapshotResult result;
  result.modelName = automl.bestName;
  result.cvAccuracy = automl.bestCvAccuracy;
  result.trainingRows = harvested;
  result.predictions.reserve(targetRecords.size());
  for (const lock::LockRecord& record : targetRecords) {
    const auto it = targetFeatures.find(record.keyIndex);
    RTLOCK_REQUIRE(it != targetFeatures.end(),
                   "target key bit has no extracted locality");
    const int predicted = automl.model->predict(*it->second);
    result.predictions.push_back(predicted);
    ++result.keyBits;
    if (predicted == (record.keyValue ? 1 : 0)) ++result.correct;
  }
  result.kpa = result.keyBits == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(result.correct) /
                         static_cast<double>(result.keyBits);
  return result;
}

}  // namespace rtlock::attack
