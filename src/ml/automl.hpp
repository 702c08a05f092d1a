// AutoML driver standing in for auto-sklearn [13].
//
// The driver enumerates a model/hyperparameter portfolio (histogram table,
// categorical & Gaussian naive Bayes, logistic regression, decision tree,
// random forest, k-NN, MLP), scores every candidate with k-fold
// cross-validation under a deterministic row-count budget, and refits the
// winner on the full training set.  The paper allots 600 s per attack
// iteration; the portfolio here converges in far less on locality data
// because aggregation shrinks the dataset to the distinct feature tuples.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "ml/model.hpp"

namespace rtlock::ml {

struct AutoMlConfig {
  int folds = 3;
  /// Deterministic search budget: cumulative rows consumed by candidate
  /// cross-validations (aggregated fold train + validation rows, summed
  /// after each candidate).  Once exceeded, the portfolio scan stops — at
  /// least one candidate is always evaluated.  A row-count budget (instead
  /// of the historical wall-clock cutoff) means model selection can never
  /// differ across machines; the default is far above what any experiment
  /// configuration consumes.
  std::size_t fitRowBudget = 50'000'000;
  /// Rows are aggregated first; if still larger, subsampled to this cap.
  std::size_t maxTrainingRows = 100000;
  /// Skip Slow-cost families (knn/mlp/forest, per Classifier::costClass)
  /// when the largest aggregated training fold exceeds this.
  std::size_t slowModelRowLimit = 20000;
};

struct LeaderboardEntry {
  std::string model;
  double cvAccuracy = 0.0;
  double seconds = 0.0;  // informational only; never feeds back into selection
};

struct AutoMlResult {
  std::unique_ptr<Classifier> model;  // refit on the full training set
  std::string bestName;
  double bestCvAccuracy = 0.0;
  std::vector<LeaderboardEntry> leaderboard;
};

/// Builds the default candidate portfolio.
[[nodiscard]] std::vector<std::unique_ptr<Classifier>> defaultPortfolio();

/// Cross-validated model selection + final refit.
///
/// Contract -------------------------------------------------------------------
/// Ownership: `data` is borrowed const (aggregated/subsampled views are
///   private copies); the returned classifier is owned by the caller via
///   unique_ptr and keeps no reference into `data`.
/// Determinism: the winner and its fit are a pure function of (data, config,
///   rng state).  The search budget is counted in rows, not seconds
///   (fitRowBudget), so machine speed can never change which model wins;
///   LeaderboardEntry::seconds is informational only.
/// Thread-safety: safe to call concurrently with distinct Rngs; the returned
///   Classifier's predict/probaOf may race on internal scratch — clone or
///   guard per thread (see src/ml/README.md).
[[nodiscard]] AutoMlResult autoSelect(const Dataset& data, const AutoMlConfig& config,
                                      support::Rng& rng);

/// The same selection on folds built elsewhere: autoSelect(data, config,
/// rng) is `data` capped by forEachSampledRow(data.size(),
/// config.maxTrainingRows, ...), then kFoldAggregated(config.folds, rng),
/// then this call.  Builders that keep their rows outside a Dataset (the
/// SnapShot attack's compact row store, attack/pool_relock.hpp) hand over
/// equal aggregates and get an identical result.  `aggregates` is borrowed
/// const, as `data` is above.
[[nodiscard]] AutoMlResult autoSelect(const KFoldAggregates& aggregates,
                                      const AutoMlConfig& config, support::Rng& rng);

}  // namespace rtlock::ml
