// Attack-level sanity: the SnapShot pipeline must (a) break fully imbalanced
// ASSURE-locked designs, (b) fail against ERA's balanced designs, and (c)
// leave the target structurally intact.
#include "attack/snapshot.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "designs/networks.hpp"

namespace rtlock::attack {
namespace {

using rtl::OpKind;

SnapshotConfig fastConfig() {
  SnapshotConfig config;
  config.relockRounds = 40;
  config.automl.folds = 2;
  return config;
}

struct LockedSample {
  rtl::Module module;
  std::vector<lock::LockRecord> records;
};

LockedSample lockWith(lock::Algorithm algorithm, rtl::Module module, double budgetFraction,
                      std::uint64_t seed) {
  support::Rng rng{seed};
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  const int budget = std::max(
      1, static_cast<int>(budgetFraction * static_cast<double>(engine.initialLockableOps())));
  (void)lock::lockWithAlgorithm(engine, algorithm, budget, rng);
  return LockedSample{std::move(module), engine.records()};
}

TEST(SnapshotTest, BreaksImbalancedAssureLocking) {
  // Pure '+' network locked by ASSURE: every locality carries the key (the
  // N_2046 mechanism).  KPA should approach 100 %.
  auto sample = lockWith(lock::Algorithm::AssureSerial, designs::makePlusNetwork(80), 0.75, 1);
  support::Rng rng{2};
  const auto result =
      snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), fastConfig(), rng);
  EXPECT_GT(result.kpa, 90.0);
  EXPECT_EQ(result.keyBits, 60);
}

TEST(SnapshotTest, ChanceAgainstEraLocking) {
  auto sample = lockWith(lock::Algorithm::Era, designs::makePlusNetwork(80), 0.75, 3);
  support::Rng rng{4};
  const auto result =
      snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), fastConfig(), rng);
  EXPECT_LT(result.kpa, 65.0);
  EXPECT_GT(result.kpa, 35.0);
}

TEST(SnapshotTest, TargetRestoredAfterAttack) {
  auto sample = lockWith(lock::Algorithm::AssureRandom, designs::makePlusNetwork(40), 0.5, 5);
  const rtl::Module reference = sample.module.clone();
  support::Rng rng{6};
  (void)snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), fastConfig(),
                       rng);
  EXPECT_TRUE(structurallyEqual(sample.module, reference));
}

TEST(SnapshotTest, ReportsTrainingVolumeAndModel) {
  auto sample = lockWith(lock::Algorithm::AssureRandom, designs::makePlusNetwork(40), 0.5, 7);
  support::Rng rng{8};
  const auto config = fastConfig();
  const auto result =
      snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), config, rng);
  EXPECT_FALSE(result.modelName.empty());
  EXPECT_GT(result.trainingRows, static_cast<std::size_t>(config.relockRounds));
  EXPECT_EQ(result.predictions.size(), sample.records.size());
}

TEST(SnapshotTest, BalancedDesignResistsEvenAssure) {
  // N_1023-style balanced design: ASSURE leaves the pair balanced only if
  // locking preserves symmetry; with 50 % budget the distribution stays
  // near-balanced and KPA stays well below the imbalanced case.
  auto sample = lockWith(
      lock::Algorithm::AssureRandom,
      designs::makeOperationNetwork("bal", {{OpKind::Add, 40}, {OpKind::Sub, 40}}), 0.5, 9);
  support::Rng rng{10};
  const auto result =
      snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), fastConfig(), rng);
  EXPECT_LT(result.kpa, 70.0);
}

TEST(SnapshotTest, KpaConsistentWithCounts) {
  auto sample = lockWith(lock::Algorithm::AssureSerial, designs::makePlusNetwork(30), 0.5, 11);
  support::Rng rng{12};
  const auto result =
      snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), fastConfig(), rng);
  EXPECT_NEAR(result.kpa, 100.0 * result.correct / result.keyBits, 1e-9);
  EXPECT_LE(result.correct, result.keyBits);
}

/// Locks and attacks a mixed-operator network on a new thread.  With
/// `warmCache` the thread first recycles node blocks into its free lists in
/// a scrambled order, so the attack's nodes land at other addresses than
/// from the cold cache a new thread starts with.
SnapshotResult attackOnFreshThread(bool warmCache, rtl::Module& restored) {
  SnapshotResult result;
  std::thread{[&] {
    if (warmCache) {
      std::vector<rtl::ExprPtr> churn;
      for (int i = 0; i < 4000; ++i) {
        churn.push_back(rtl::makeTernary(
            rtl::makeKeyRef(i), rtl::makeSignalRef(static_cast<rtl::SignalId>(i), 8),
            rtl::makeBinary(OpKind::Add, rtl::makeConstant(1, 8), rtl::makeConstant(2, 8))));
      }
      for (std::size_t i = 0; i < churn.size(); i += 3) rtl::recycle(std::move(churn[i]));
      for (rtl::ExprPtr& expr : churn) rtl::recycle(std::move(expr));
    }
    rtl::Module network = designs::makeOperationNetwork(
        "mix", {{OpKind::Add, 30}, {OpKind::Sub, 12}, {OpKind::Mul, 8}});
    auto sample = lockWith(lock::Algorithm::AssureRandom, std::move(network), 0.75, 21);
    support::Rng rng{22};
    result = snapshotAttack(sample.module, sample.records, lock::PairTable::fixed(), fastConfig(),
                            rng);
    restored = std::move(sample.module);
  }}.join();
  return result;
}

TEST(SnapshotTest, SameSeedMatchesFromColdAndWarmNodeCache) {
  rtl::Module coldModule{"cold"};
  rtl::Module warmModule{"warm"};
  const SnapshotResult cold = attackOnFreshThread(false, coldModule);
  const SnapshotResult warm = attackOnFreshThread(true, warmModule);
  EXPECT_EQ(cold.keyBits, warm.keyBits);
  EXPECT_EQ(cold.correct, warm.correct);
  EXPECT_EQ(cold.kpa, warm.kpa);
  EXPECT_EQ(cold.modelName, warm.modelName);
  EXPECT_EQ(cold.cvAccuracy, warm.cvAccuracy);
  EXPECT_EQ(cold.trainingRows, warm.trainingRows);
  EXPECT_EQ(cold.predictions, warm.predictions);
  EXPECT_TRUE(structurallyEqual(coldModule, warmModule));
}

}  // namespace
}  // namespace rtlock::attack
