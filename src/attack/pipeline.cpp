#include "attack/pipeline.hpp"

#include <algorithm>

#include "sim/harness.hpp"

namespace rtlock::attack {

namespace {

/// Everything one locked sample contributes to the aggregate.
struct SampleOutcome {
  double kpa = 0.0;
  double keyBits = 0.0;
  double bitsUsed = 0.0;
  double globalMetric = 0.0;
  double restrictedMetric = 0.0;
  double trainingRows = 0.0;
  bool functionalFailure = false;
};

SampleOutcome evaluateSample(lock::LockEngine& engine, const rtl::Module& original,
                             lock::Algorithm algorithm, const lock::PairTable& table,
                             const EvaluationConfig& config, support::Rng rng) {
  rtl::Module& locked = engine.module();
  const int budget = lock::keyBudget(config.keyBudgetFraction, engine.initialLockableOps());
  const lock::AlgorithmReport lockReport = lock::lockWithAlgorithm(
      engine, algorithm, budget, rng, lock::ReportDetail::Summary);

  // Copy the ground truth before the attack relocks the module.
  const std::vector<lock::LockRecord> truth = engine.records();

  SampleOutcome outcome;
  if (config.verifyFunctional) {
    // Check the freshly locked sample behaves like the original under its
    // correct key, BEFORE the attack relocks the module.  The stimulus
    // stream is an independent fixed seed: enabling the check perturbs no
    // rng draw the attack or metrics see, so every KPA/metric output bit is
    // unchanged.
    sim::BitVector correctKey{locked.keyWidth()};
    for (const lock::LockRecord& record : truth) {
      correctKey.setBit(record.keyIndex, record.keyValue);
    }
    sim::Harness harness{original, locked};
    support::Rng verifyRng{0x76657269'66790001ULL};
    outcome.functionalFailure =
        harness.findMismatch(correctKey, {}, verifyRng).has_value();
  }

  const SnapshotResult attack = snapshotAttack(locked, truth, table, config.snapshot, rng);
  outcome.kpa = attack.kpa;
  outcome.keyBits = static_cast<double>(attack.keyBits);
  outcome.bitsUsed = static_cast<double>(lockReport.bitsUsed);
  outcome.globalMetric = lockReport.finalGlobalMetric;
  outcome.restrictedMetric = lockReport.finalRestrictedMetric;
  outcome.trainingRows = static_cast<double>(attack.trainingRows);

  // Restore the module for the next sample.
  engine.undoAll();
  return outcome;
}

}  // namespace

EvaluationResult evaluateBenchmark(const rtl::Module& original, const std::string& benchmarkName,
                                   lock::Algorithm algorithm, const lock::PairTable& table,
                                   const EvaluationConfig& config, support::Rng& rng) {
  RTLOCK_REQUIRE(config.testLocks > 0, "evaluation needs at least one locked sample");

  // Seeding convention: one fork advances the caller's stream, then sample i
  // draws from substream(i) of that root, so sample streams depend only on
  // (caller stream, sample index).
  const support::Rng sampleRoot = rng.fork();

  // Clone once; every sample restores the module through the engine's
  // checkpoint/undo path (undoAll splices the trees back and re-pins the
  // pools, so the restored state is exactly the freshly-cloned state —
  // proved by EngineTest's fuzzed round-trips).
  rtl::Module module = original.clone();
  lock::LockEngine engine{module, table};

  EvaluationResult result;
  result.benchmark = benchmarkName;
  result.algorithm = algorithm;
  result.minKpa = 100.0;
  result.maxKpa = 0.0;
  for (int sample = 0; sample < config.testLocks; ++sample) {
    const SampleOutcome outcome =
        evaluateSample(engine, original, algorithm, table, config,
                       sampleRoot.substream(static_cast<std::uint64_t>(sample)));
    result.meanKpa += outcome.kpa;
    result.minKpa = std::min(result.minKpa, outcome.kpa);
    result.maxKpa = std::max(result.maxKpa, outcome.kpa);
    result.meanKeyBits += outcome.keyBits;
    result.meanBitsUsed += outcome.bitsUsed;
    result.meanGlobalMetric += outcome.globalMetric;
    result.meanRestrictedMetric += outcome.restrictedMetric;
    result.meanTrainingRows += outcome.trainingRows;
    if (outcome.functionalFailure) ++result.functionalFailures;
    ++result.samples;
  }

  const auto n = static_cast<double>(result.samples);
  result.meanKpa /= n;
  result.meanKeyBits /= n;
  result.meanBitsUsed /= n;
  result.meanGlobalMetric /= n;
  result.meanRestrictedMetric /= n;
  result.meanTrainingRows /= n;
  return result;
}

}  // namespace rtlock::attack
