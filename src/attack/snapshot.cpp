#include "attack/snapshot.hpp"

#include <unordered_map>

#include "attack/pool_relock.hpp"

namespace rtlock::attack {

SnapshotResult snapshotAttack(const rtl::Module& lockedTarget,
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

  // Step 2: self-referencing training set, relocked tree-free over an index
  // arena of the target (attack/pool_relock.hpp).  Step 3: model selection +
  // training; the kept rows fold straight from the row store, so no Dataset
  // of them is built and auto-ml gets the folds autoSelect(Dataset) would
  // build.
  PoolRelocker relocker = PoolRelocker::build(lockedTarget, table, config.locality);
  const int budget = lock::keyBudget(config.relockBudgetFraction, relocker.totalLockableOps());
  relocker.reserveRows(static_cast<std::size_t>(budget) *
                       static_cast<std::size_t>(config.relockRounds));
  for (int round = 0; round < config.relockRounds; ++round) relocker.relockRound(budget, rng);
  const ml::AutoMlResult automl = ml::autoSelect(
      relocker.foldAggregates(config.automl.maxTrainingRows, config.automl.folds, rng),
      config.automl, rng);

  // Step 4: per-bit prediction and KPA scoring.
  SnapshotResult result;
  result.modelName = automl.bestName;
  result.cvAccuracy = automl.bestCvAccuracy;
  result.trainingRows = relocker.rowCount();
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
