#include "ml/dataset.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "support/diagnostics.hpp"
#include "support/probe_table.hpp"

namespace rtlock::ml {

Dataset::Dataset(int featureCount) : featureCount_(featureCount) {
  RTLOCK_REQUIRE(featureCount >= 1, "datasets need at least one feature");
}

void Dataset::add(RowView features, int label, double weight) {
  RTLOCK_REQUIRE(static_cast<int>(features.size()) == featureCount_,
                 "feature row arity mismatch");
  RTLOCK_REQUIRE(label == 0 || label == 1, "binary labels only");
  RTLOCK_REQUIRE(weight > 0.0, "weights must be positive");
  const double* source = features.data();
  if (values_.size() + features.size() > values_.capacity()) {
    // Growth would invalidate `features` if it views this dataset's own
    // matrix (e.g. d.add(d.row(i), ...)); re-anchor through the row offset.
    const bool aliasesSelf =
        source >= values_.data() && source < values_.data() + values_.size();
    const std::size_t offset =
        aliasesSelf ? static_cast<std::size_t>(source - values_.data()) : 0;
    values_.reserve(std::max(values_.capacity() * 2, values_.size() + features.size()));
    if (aliasesSelf) source = values_.data() + offset;
  }
  values_.insert(values_.end(), source, source + features.size());
  labels_.push_back(label);
  weights_.push_back(weight);
}

void Dataset::reserveRows(std::size_t rows) {
  values_.reserve(values_.size() + rows * static_cast<std::size_t>(featureCount_));
  labels_.reserve(labels_.size() + rows);
  weights_.reserve(weights_.size() + rows);
}

double Dataset::totalWeight() const noexcept {
  return std::accumulate(weights_.begin(), weights_.end(), 0.0);
}

double Dataset::positiveFraction() const noexcept {
  double positive = 0.0;
  double total = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    total += weights_[i];
    if (labels_[i] == 1) positive += weights_[i];
  }
  return total == 0.0 ? 0.0 : positive / total;
}

namespace {

[[nodiscard]] std::uint64_t mixHash(std::uint64_t h, std::uint64_t value) noexcept {
  h ^= value + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h * 0xff51afd7ed558ccdull;
}

/// Word-wise mix over a row's exact double bit patterns.  Only equality
/// (exact bytes) affects grouping and aggregation results — the hash merely
/// routes probes, so grouping, first-seen order and accumulated weights are
/// identical to the historical string-key map regardless of this function.
[[nodiscard]] std::uint64_t hashFeatures(RowView row) noexcept {
  std::uint64_t hash = 1469598103934665603ull;
  for (const double value : row) {
    std::uint64_t bits;
    std::memcpy(&bits, &value, sizeof bits);
    hash = mixHash(hash, bits);
  }
  return hash;
}

[[nodiscard]] std::uint64_t hashRow(RowView row, int label) noexcept {
  return mixHash(hashFeatures(row), static_cast<std::uint64_t>(label));
}

[[nodiscard]] bool sameRow(RowView a, RowView b) noexcept {
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

}  // namespace

/// Merges (features, label) duplicates into one weighted result row each,
/// in first-seen order; weights accumulate in consumption order.
class Dataset::Aggregator {
 public:
  explicit Aggregator(int featureCount) : result_(featureCount) {}

  /// Adds one row; returns the id (= result row) of its (features, label).
  std::uint32_t consume(RowView row, int label, double weight, std::uint64_t hash) {
    const std::uint32_t id = table_.intern(hash, [&](std::uint32_t candidate) {
      return result_.labels_[candidate] == label && sameRow(result_.row(candidate), row);
    });
    if (id == result_.size()) {
      result_.add(row, label, weight);
    } else {
      result_.weights_[id] += weight;
    }
    return id;
  }

  [[nodiscard]] Dataset take() && { return std::move(result_); }

 private:
  Dataset result_;
  support::ProbeTable table_;
};

template <typename Table>
Dataset Dataset::aggregateOf(const Table& table) {
  Aggregator aggregator{table.featureCount()};
  for (std::size_t i = 0; i < table.size(); ++i) {
    const RowView row = table.row(i);
    const int label = table.label(i);
    aggregator.consume(row, label, table.weight(i), hashRow(row, label));
  }
  return std::move(aggregator).take();
}

Dataset Dataset::aggregated() const { return aggregateOf(*this); }

KFoldAggregates Dataset::kFoldAggregated(int folds, support::Rng& rng) const {
  // The whole-set aggregate names each row's distinct (features, label)
  // tuple: one hash probe per row.
  Aggregator full{featureCount_};
  std::vector<std::uint32_t> tupleOf(size());
  for (std::size_t i = 0; i < size(); ++i) {
    const RowView r = row(i);
    tupleOf[i] = full.consume(r, labels_[i], weights_[i], hashRow(r, labels_[i]));
  }
  return aggregateFolds(std::move(full).take(), tupleOf, weights_, folds, rng);
}

KFoldAggregates aggregateFolds(Dataset all, std::span<const std::uint32_t> tupleOf,
                               std::span<const double> weights, int folds, support::Rng& rng) {
  RTLOCK_REQUIRE(folds >= 2, "k-fold needs at least two folds");
  RTLOCK_REQUIRE(tupleOf.size() == weights.size(), "one weight per row");
  const std::size_t rows = tupleOf.size();
  // kFold()'s draws: one shuffle of the row positions (a 32-bit order
  // vector permutes exactly as a size_t one).
  std::vector<std::uint32_t> order(rows);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  rng.shuffle(order);
  std::vector<int> foldOf(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    foldOf[order[i]] = static_cast<int>(i % static_cast<std::size_t>(folds));
  }

  KFoldAggregates result;
  result.all = std::move(all);
  const Dataset& tuples = result.all;
  // Each fold's pair aggregates through dense tuple id -> result row
  // tables, filled in ascending row order (exactly the view order), so
  // first-seen order and the order of every weight sum are those of a
  // separate aggregation of each fold view.
  constexpr std::uint32_t kAbsent = UINT32_MAX;
  std::vector<std::uint32_t> trainSlot;
  std::vector<std::uint32_t> validationSlot;
  result.folds.reserve(static_cast<std::size_t>(folds));
  for (int fold = 0; fold < folds; ++fold) {
    Dataset train{tuples.featureCount()};
    Dataset validation{tuples.featureCount()};
    trainSlot.assign(tuples.size(), kAbsent);
    validationSlot.assign(tuples.size(), kAbsent);
    for (std::size_t i = 0; i < rows; ++i) {
      const bool validates = foldOf[i] == fold;
      Dataset& target = validates ? validation : train;
      const std::uint32_t tuple = tupleOf[i];
      std::uint32_t& slot = (validates ? validationSlot : trainSlot)[tuple];
      if (slot == kAbsent) {
        slot = static_cast<std::uint32_t>(target.size());
        target.add(tuples.row(tuple), tuples.label(tuple), weights[i]);
      } else {
        target.weights_[slot] += weights[i];
      }
    }
    result.folds.emplace_back(std::move(train), std::move(validation));
  }
  return result;
}

FeatureGroups Dataset::featureGroups() const {
  FeatureGroups groups;
  groups.groupOf.reserve(size());
  support::ProbeTable table;
  for (std::size_t i = 0; i < size(); ++i) {
    const RowView r = row(i);
    const std::uint32_t group = table.intern(hashFeatures(r), [&](std::uint32_t candidate) {
      return sameRow(row(groups.firstRow[candidate]), r);
    });
    if (group == groups.size()) groups.firstRow.push_back(static_cast<std::uint32_t>(i));
    groups.groupOf.push_back(group);
  }
  return groups;
}

Dataset Dataset::sampled(std::size_t maxRows, support::Rng& rng) const {
  Dataset result{featureCount_};
  result.reserveRows(std::min(size(), maxRows));
  forEachSampledRow(size(), maxRows, rng, [this, &result](std::size_t i, double scale) {
    result.add(row(i), labels_[i], weights_[i] * scale);
  });
  return result;
}

std::pair<Dataset, Dataset> Dataset::split(double trainFraction, support::Rng& rng) const {
  RTLOCK_REQUIRE(trainFraction > 0.0 && trainFraction < 1.0,
                 "train fraction must lie strictly between 0 and 1");
  Dataset train{featureCount_};
  Dataset test{featureCount_};
  for (std::size_t i = 0; i < size(); ++i) {
    (rng.chance(trainFraction) ? train : test).add(row(i), labels_[i], weights_[i]);
  }
  return {std::move(train), std::move(test)};
}

std::vector<std::pair<DatasetView, DatasetView>> Dataset::kFold(int folds,
                                                                support::Rng& rng) const {
  RTLOCK_REQUIRE(folds >= 2, "k-fold needs at least two folds");
  std::vector<std::size_t> order(size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);

  std::vector<int> foldOf(size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    foldOf[order[i]] = static_cast<int>(i % static_cast<std::size_t>(folds));
  }

  std::vector<std::pair<DatasetView, DatasetView>> result;
  result.reserve(static_cast<std::size_t>(folds));
  for (int fold = 0; fold < folds; ++fold) {
    std::vector<std::uint32_t> train;
    std::vector<std::uint32_t> validation;
    train.reserve(size());
    validation.reserve(size() / static_cast<std::size_t>(folds) + 1);
    for (std::size_t i = 0; i < size(); ++i) {
      (foldOf[i] == fold ? validation : train).push_back(static_cast<std::uint32_t>(i));
    }
    result.emplace_back(DatasetView{*this, std::move(train)},
                        DatasetView{*this, std::move(validation)});
  }
  return result;
}

double DatasetView::totalWeight() const noexcept {
  double total = 0.0;
  for (const std::uint32_t r : rows_) total += base_->weights_[r];
  return total;
}

double DatasetView::positiveFraction() const noexcept {
  double positive = 0.0;
  double total = 0.0;
  for (const std::uint32_t r : rows_) {
    total += base_->weights_[r];
    if (base_->labels_[r] == 1) positive += base_->weights_[r];
  }
  return total == 0.0 ? 0.0 : positive / total;
}

Dataset DatasetView::aggregated() const { return Dataset::aggregateOf(*this); }

Dataset DatasetView::materialized() const {
  Dataset result{featureCount()};
  result.reserveRows(size());
  for (std::size_t i = 0; i < size(); ++i) result.add(row(i), label(i), weight(i));
  return result;
}

}  // namespace rtlock::ml
