#include "ml/automl.hpp"

#include <gtest/gtest.h>

#include <string>

namespace rtlock::ml {
namespace {

Dataset localityLikeData(support::Rng& rng, int rows, double signal) {
  // Mimics SnapShot localities: feature (C1, C2) with P(k=1 | (a,b)) set by
  // an imbalance table; `signal` in [0.5, 1] controls learnability.
  Dataset data{2};
  for (int i = 0; i < rows; ++i) {
    const auto c1 = static_cast<int>(rng.below(4));
    const auto c2 = static_cast<int>(rng.below(4));
    const double p = (c1 + c2) % 2 == 0 ? signal : 1.0 - signal;
    data.add({static_cast<double>(c1), static_cast<double>(c2)}, rng.chance(p) ? 1 : 0);
  }
  return data;
}

TEST(AutoMlTest, SelectsAccurateModelOnLearnableData) {
  support::Rng rng{1};
  const Dataset train = localityLikeData(rng, 3000, 0.95);
  const Dataset test = localityLikeData(rng, 1500, 0.95);
  AutoMlConfig config;
  config.folds = 3;
  const AutoMlResult result = autoSelect(train, config, rng);
  ASSERT_NE(result.model, nullptr);
  EXPECT_GT(result.bestCvAccuracy, 0.85);
  EXPECT_GT(accuracy(*result.model, test), 0.85);
  EXPECT_FALSE(result.leaderboard.empty());
}

TEST(AutoMlTest, RandomLabelsYieldChanceAccuracy) {
  support::Rng rng{2};
  const Dataset train = localityLikeData(rng, 2000, 0.5);
  const Dataset test = localityLikeData(rng, 1000, 0.5);
  AutoMlConfig config;
  const AutoMlResult result = autoSelect(train, config, rng);
  EXPECT_NEAR(accuracy(*result.model, test), 0.5, 0.07);
}

/// Name of the first leaderboard entry with the highest CV accuracy: the
/// winner under auto-ml's tie rule (portfolio order breaks ties).
std::string firstBest(const AutoMlResult& result) {
  const LeaderboardEntry* best = nullptr;
  for (const auto& entry : result.leaderboard) {
    if (best == nullptr || entry.cvAccuracy > best->cvAccuracy) best = &entry;
  }
  return best == nullptr ? std::string{} : best->model;
}

TEST(AutoMlTest, WinnerIsLeaderboardMaximum) {
  support::Rng rng{3};
  const Dataset train = localityLikeData(rng, 800, 0.9);
  AutoMlConfig config;
  const AutoMlResult result = autoSelect(train, config, rng);
  double best = 0.0;
  for (const auto& entry : result.leaderboard) best = std::max(best, entry.cvAccuracy);
  EXPECT_EQ(result.bestCvAccuracy, best);
  EXPECT_EQ(result.bestName, firstBest(result));
}

TEST(AutoMlTest, TiesGoToTheFirstCandidateInPortfolioOrder) {
  // One label only: every candidate predicts it everywhere, so all CV
  // accuracies tie at 1 and the portfolio's first candidate must win.
  Dataset train{2};
  for (int i = 0; i < 60; ++i) {
    train.add({static_cast<double>(i % 4), static_cast<double>(i % 3)}, 1);
  }
  support::Rng rng{4};
  const AutoMlResult result = autoSelect(train, {}, rng);
  ASSERT_GE(result.leaderboard.size(), 2u);
  for (const auto& entry : result.leaderboard) EXPECT_EQ(entry.cvAccuracy, 1.0) << entry.model;
  EXPECT_EQ(result.bestName, defaultPortfolio().front()->name());
  EXPECT_EQ(result.bestName, firstBest(result));
}

TEST(AutoMlTest, EmptyDatasetRejected) {
  support::Rng rng{4};
  const Dataset empty{2};
  EXPECT_THROW((void)autoSelect(empty, {}, rng), support::ContractViolation);
}

TEST(AutoMlTest, RowBudgetStopsSearchEarly) {
  support::Rng rng{5};
  const Dataset train = localityLikeData(rng, 2000, 0.9);
  AutoMlConfig config;
  config.fitRowBudget = 0;  // only the first candidate is evaluated
  const AutoMlResult result = autoSelect(train, config, rng);
  ASSERT_NE(result.model, nullptr);
  EXPECT_EQ(result.leaderboard.size(), 1u);
}

TEST(AutoMlTest, RowBudgetIsDeterministicNotWallClock) {
  // The same budget must cut the portfolio at the same candidate on every
  // run/machine: leaderboards of two identical invocations match exactly.
  support::Rng dataRng{8};
  const Dataset train = localityLikeData(dataRng, 1200, 0.9);
  AutoMlConfig config;
  config.fitRowBudget = 200;  // enough for a prefix of the portfolio only
  support::Rng rngA{9};
  support::Rng rngB{9};
  const AutoMlResult a = autoSelect(train, config, rngA);
  const AutoMlResult b = autoSelect(train, config, rngB);
  ASSERT_EQ(a.leaderboard.size(), b.leaderboard.size());
  EXPECT_LT(a.leaderboard.size(), defaultPortfolio().size());
  for (std::size_t i = 0; i < a.leaderboard.size(); ++i) {
    EXPECT_EQ(a.leaderboard[i].model, b.leaderboard[i].model);
    EXPECT_DOUBLE_EQ(a.leaderboard[i].cvAccuracy, b.leaderboard[i].cvAccuracy);
  }
}

TEST(AutoMlTest, DeterministicGivenSeed) {
  support::Rng dataRng{6};
  const Dataset train = localityLikeData(dataRng, 1500, 0.9);
  support::Rng rngA{7};
  support::Rng rngB{7};
  const AutoMlResult a = autoSelect(train, {}, rngA);
  const AutoMlResult b = autoSelect(train, {}, rngB);
  EXPECT_EQ(a.bestName, b.bestName);
  EXPECT_DOUBLE_EQ(a.bestCvAccuracy, b.bestCvAccuracy);
}

}  // namespace
}  // namespace rtlock::ml
