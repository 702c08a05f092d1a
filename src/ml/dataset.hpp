// Weighted tabular dataset for binary classification — flat data plane.
//
// SnapShot localities are tiny categorical tuples that repeat millions of
// times across relocking rounds, so the dataset supports instance weights and
// lossless aggregation of duplicate rows — a 10^6-row training set typically
// collapses to a few hundred weighted rows.
//
// Storage is one contiguous row-major matrix (size() * featureCount()
// doubles) plus parallel label/weight columns: appending a row never
// allocates per row (amortized growth only), and rows are read through
// span-style views.  Cross-validation folds are DatasetView index views over
// the one backing matrix instead of deep-copied Datasets; see
// src/ml/README.md for the layout and ownership rules.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace rtlock::ml {

/// Borrowed, contiguous view of one feature row.
using RowView = std::span<const double>;

/// Owning row type for call sites that build feature vectors incrementally.
using FeatureRow = std::vector<double>;

class DatasetView;
struct FeatureGroups;
struct KFoldAggregates;

/// Auto-ml's row cap — the one subsampling rule, shared by Dataset::sampled
/// and the SnapShot attack's compact row store (attack/pool_relock.hpp),
/// which materializes only the rows this rule keeps.  A table of `rows` rows
/// within `maxRows` is kept whole: visit(i, 1.0) for every row in order, no
/// draws.  A larger table keeps the uniform subset
/// rng.sampleIndices(rows, maxRows) in draw order, each row's weight scaled
/// by rows / maxRows so the total mass stays unbiased.
template <typename Visit>
void forEachSampledRow(std::size_t rows, std::size_t maxRows, support::Rng& rng, Visit&& visit) {
  if (rows <= maxRows) {
    for (std::size_t i = 0; i < rows; ++i) visit(i, 1.0);
    return;
  }
  const double scale = static_cast<double>(rows) / static_cast<double>(maxRows);
  for (const std::size_t i : rng.sampleIndices(rows, maxRows)) visit(i, scale);
}

class Dataset {
 public:
  explicit Dataset(int featureCount);

  void add(RowView features, int label, double weight = 1.0);
  void add(std::initializer_list<double> features, int label, double weight = 1.0) {
    add(RowView{features.begin(), features.size()}, label, weight);
  }

  /// Pre-grows the backing storage for `rows` additional rows.
  void reserveRows(std::size_t rows);

  [[nodiscard]] int featureCount() const noexcept { return featureCount_; }
  [[nodiscard]] std::size_t size() const noexcept { return labels_.size(); }
  [[nodiscard]] bool empty() const noexcept { return labels_.empty(); }

  [[nodiscard]] RowView row(std::size_t index) const noexcept {
    return RowView{values_.data() + index * static_cast<std::size_t>(featureCount_),
                   static_cast<std::size_t>(featureCount_)};
  }
  [[nodiscard]] int label(std::size_t index) const noexcept { return labels_[index]; }
  [[nodiscard]] double weight(std::size_t index) const noexcept { return weights_[index]; }

  [[nodiscard]] double totalWeight() const noexcept;
  /// Weighted fraction of rows with label 1.
  [[nodiscard]] double positiveFraction() const noexcept;

  /// Merges duplicate feature rows: one row per (features, label) with
  /// accumulated weight.  Order is deterministic (first-seen order).
  [[nodiscard]] Dataset aggregated() const;

  /// Groups the rows by feature tuple, labels and weights ignored.  Tuples
  /// match on exact bit patterns, as in aggregated() (-0.0 and 0.0 are two
  /// groups); group ids count up in first-seen row order.
  [[nodiscard]] FeatureGroups featureGroups() const;

  /// Weighted random subsample of at most `maxRows` rows (weights carried
  /// over; aggregation-friendly) under forEachSampledRow's rule: a copy of
  /// *this if small enough.
  [[nodiscard]] Dataset sampled(std::size_t maxRows, support::Rng& rng) const;

  /// Random split into train/test by row (weights preserved).
  [[nodiscard]] std::pair<Dataset, Dataset> split(double trainFraction, support::Rng& rng) const;

  /// k-fold partition as (train, validation) index views over *this*.  The
  /// views borrow this dataset and must not outlive it.  Fold membership is
  /// identical to the historical deep-copy semantics: one shuffle of the row
  /// order, row i lands in fold (shuffled position % folds), and every view
  /// lists its rows in ascending original-row order.
  [[nodiscard]] std::vector<std::pair<DatasetView, DatasetView>> kFold(int folds,
                                                                       support::Rng& rng) const;

  /// kFold() composed with aggregation: per fold the aggregated (train,
  /// validation) pair, plus the aggregate of the whole dataset (`all`).
  /// Row-for-row identical to aggregating each kFold() view and calling
  /// aggregated() separately — same shuffle, same first-seen order, same
  /// weight sums — but only the whole-set pass hashes rows; the folds
  /// aggregate through dense tuple ids (aggregateFolds, the auto-ml fast
  /// path).
  [[nodiscard]] KFoldAggregates kFoldAggregated(int folds, support::Rng& rng) const;

 private:
  friend class DatasetView;
  friend KFoldAggregates aggregateFolds(Dataset all, std::span<const std::uint32_t> tupleOf,
                                        std::span<const double> weights, int folds,
                                        support::Rng& rng);
  class Aggregator;

  /// Shared aggregation over anything with featureCount/size/row/label/weight.
  template <typename Table>
  [[nodiscard]] static Dataset aggregateOf(const Table& table);

  int featureCount_;
  std::vector<double> values_;  // row-major, size() * featureCount_
  std::vector<int> labels_;
  std::vector<double> weights_;
};

/// Result of Dataset::featureGroups: the distinct feature tuples of a
/// dataset, for kernels whose per-row work depends on the features alone.
struct FeatureGroups {
  /// Per row, the id of its tuple's group.
  std::vector<std::uint32_t> groupOf;
  /// Per group, the first row carrying its tuple (ascending).
  std::vector<std::uint32_t> firstRow;

  [[nodiscard]] std::size_t size() const noexcept { return firstRow.size(); }
};

/// Result bundle of Dataset::kFoldAggregated.
struct KFoldAggregates {
  /// Aggregated (train, validation) pair per fold.
  std::vector<std::pair<Dataset, Dataset>> folds;
  /// Aggregate of the entire dataset (the final-refit training set).
  Dataset all{1};
};

/// The fold half of Dataset::kFoldAggregated, for callers that hold a raw
/// table only as its whole-set aggregate: `all` is aggregated() of a table
/// whose row i is the tuple all.row(tupleOf[i]) with label
/// all.label(tupleOf[i]) and weight weights[i].  Draws kFold()'s shuffle
/// over the tupleOf.size() rows and aggregates every fold's (train,
/// validation) pair through dense tuple ids, visiting rows in ascending
/// order, so the result equals that table's kFoldAggregated(folds, rng).
[[nodiscard]] KFoldAggregates aggregateFolds(Dataset all, std::span<const std::uint32_t> tupleOf,
                                             std::span<const double> weights, int folds,
                                             support::Rng& rng);

/// Non-owning subset of a Dataset's rows (the fold-view type).  Holds the
/// row indices it exposes; the backing Dataset must outlive every view.
class DatasetView {
 public:
  DatasetView(const Dataset& base, std::vector<std::uint32_t> rows)
      : base_(&base), rows_(std::move(rows)) {}

  [[nodiscard]] int featureCount() const noexcept { return base_->featureCount(); }
  [[nodiscard]] std::size_t size() const noexcept { return rows_.size(); }
  [[nodiscard]] bool empty() const noexcept { return rows_.empty(); }

  [[nodiscard]] RowView row(std::size_t index) const noexcept {
    return base_->row(rows_[index]);
  }
  [[nodiscard]] int label(std::size_t index) const noexcept {
    return base_->label(rows_[index]);
  }
  [[nodiscard]] double weight(std::size_t index) const noexcept {
    return base_->weight(rows_[index]);
  }

  [[nodiscard]] double totalWeight() const noexcept;
  [[nodiscard]] double positiveFraction() const noexcept;

  /// Backing-row indices, in exposure order.
  [[nodiscard]] const std::vector<std::uint32_t>& indices() const noexcept { return rows_; }

  /// Lossless duplicate merge (first-seen order), as Dataset::aggregated().
  [[nodiscard]] Dataset aggregated() const;

  /// Deep copy of the viewed rows into a standalone Dataset.
  [[nodiscard]] Dataset materialized() const;

 private:
  const Dataset* base_;
  std::vector<std::uint32_t> rows_;
};

}  // namespace rtlock::ml
