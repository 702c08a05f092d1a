#include "ml/automl.hpp"

#include <chrono>
#include <optional>

#include "ml/baseline.hpp"
#include "ml/forest.hpp"
#include "ml/knn.hpp"
#include "ml/linear.hpp"
#include "ml/mlp.hpp"
#include "ml/naive_bayes.hpp"
#include "ml/tree.hpp"
#include "support/diagnostics.hpp"

namespace rtlock::ml {

std::vector<std::unique_ptr<Classifier>> defaultPortfolio() {
  std::vector<std::unique_ptr<Classifier>> portfolio;
  portfolio.push_back(std::make_unique<MajorityClassifier>());
  portfolio.push_back(std::make_unique<HistogramClassifier>(1.0));
  portfolio.push_back(std::make_unique<HistogramClassifier>(0.1));
  portfolio.push_back(std::make_unique<CategoricalNaiveBayes>(1.0));
  portfolio.push_back(std::make_unique<CategoricalNaiveBayes>(0.1));
  portfolio.push_back(std::make_unique<GaussianNaiveBayes>());
  portfolio.push_back(std::make_unique<LogisticRegression>(LogisticRegression::Hyper{0.5, 1e-4, 300}));
  portfolio.push_back(std::make_unique<LogisticRegression>(LogisticRegression::Hyper{0.1, 1e-3, 300}));
  portfolio.push_back(std::make_unique<DecisionTree>(DecisionTree::Hyper{6, 2.0, 32, 0}));
  portfolio.push_back(std::make_unique<DecisionTree>(DecisionTree::Hyper{12, 2.0, 32, 0}));
  portfolio.push_back(std::make_unique<RandomForest>(RandomForest::Hyper{15, 10, 0}));
  portfolio.push_back(std::make_unique<KnnClassifier>(KnnClassifier::Hyper{5, 4096}));
  portfolio.push_back(std::make_unique<KnnClassifier>(KnnClassifier::Hyper{15, 4096}));
  portfolio.push_back(std::make_unique<MlpClassifier>(MlpClassifier::Hyper{16, 0.05, 250, 1e-5}));
  return portfolio;
}

AutoMlResult autoSelect(const Dataset& rawData, const AutoMlConfig& config, support::Rng& rng) {
  RTLOCK_REQUIRE(!rawData.empty(), "auto-ml needs a non-empty training set");

  // Subsample raw rows first (folding must happen on raw rows: aggregating
  // duplicates before the split would make folds all-or-nothing per feature
  // tuple and bias validation accuracy).  Under the cap, fold directly over
  // the caller's data (sampled() would be a full flat copy and draws no
  // randomness then).
  std::optional<Dataset> sampledStorage;
  if (rawData.size() > config.maxTrainingRows) {
    sampledStorage.emplace(rawData.sampled(config.maxTrainingRows, rng));
  }
  const Dataset& data = sampledStorage.has_value() ? *sampledStorage : rawData;

  // Fused fold construction (one hash probe per row): per-fold aggregated
  // (train, validation) pairs plus the full aggregate for the final refit,
  // row-for-row identical to aggregating kFold() views one by one.
  return autoSelect(data.kFoldAggregated(config.folds, rng), config, rng);
}

AutoMlResult autoSelect(const KFoldAggregates& aggregates, const AutoMlConfig& config,
                        support::Rng& rng) {
  RTLOCK_REQUIRE(!aggregates.all.empty(), "auto-ml needs a non-empty training set");

  using Clock = std::chrono::steady_clock;
  const auto elapsedSecondsSince = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };

  const std::vector<std::pair<Dataset, Dataset>>& folds = aggregates.folds;
  std::size_t largestTrainFold = 0;
  for (const auto& [train, validation] : folds) {
    largestTrainFold = std::max(largestTrainFold, train.size());
  }

  AutoMlResult result;
  result.bestCvAccuracy = -1.0;
  std::size_t rowsConsumed = 0;

  for (auto& candidate : defaultPortfolio()) {
    // Always evaluate at least one candidate, budget or not.  The budget is
    // a deterministic row count, never wall clock, so the candidate cut-off
    // is identical on every machine.
    if (!result.leaderboard.empty() && rowsConsumed > config.fitRowBudget) break;
    if (largestTrainFold > config.slowModelRowLimit &&
        candidate->costClass() == CostClass::Slow) {
      continue;
    }

    const auto candidateStart = Clock::now();
    double weightedCorrect = 0.0;
    double weightedTotal = 0.0;
    for (const auto& [train, validation] : folds) {
      if (train.empty() || validation.empty()) continue;
      auto foldModel = candidate->fresh();
      foldModel->fit(train, rng);
      weightedCorrect += accuracy(*foldModel, validation) * validation.totalWeight();
      weightedTotal += validation.totalWeight();
      rowsConsumed += train.size() + validation.size();
    }
    const double cvAccuracy = weightedTotal == 0.0 ? 0.0 : weightedCorrect / weightedTotal;

    result.leaderboard.push_back(
        LeaderboardEntry{candidate->name(), cvAccuracy, elapsedSecondsSince(candidateStart)});
    if (cvAccuracy > result.bestCvAccuracy) {
      result.bestCvAccuracy = cvAccuracy;
      result.bestName = candidate->name();
      result.model = candidate->fresh();
    }
  }

  RTLOCK_REQUIRE(result.model != nullptr, "auto-ml evaluated no candidates");
  result.model->fit(aggregates.all, rng);
  return result;
}

}  // namespace rtlock::ml
