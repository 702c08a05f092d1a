#include "ml/tree.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

namespace rtlock::ml {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct ClassMass {
  double negative = 0.0;
  double positive = 0.0;

  [[nodiscard]] double total() const noexcept { return negative + positive; }

  /// Weighted Gini impurity.
  [[nodiscard]] double gini() const noexcept {
    const double sum = total();
    if (sum <= 0.0) return 0.0;
    const double p = positive / sum;
    return 2.0 * p * (1.0 - p);
  }
};

// Two candidate thresholds per 128-bit lane (GCC/Clang vector extension,
// native SSE2 on every x86-64 build), four per pass.  Lane arithmetic is IEEE
// per lane, so it rounds as the scalar expressions do on every ISA; casts
// between the two vector types reinterpret the bits.
using Lanes = double __attribute__((vector_size(16)));
using LaneMask = std::int64_t __attribute__((vector_size(16)));
constexpr std::size_t kLanes = 2;

/// Scores the 2 * Pairs thresholds at `thresholds` on the node's n rows
/// (values and class-masked weights in row order): gains[k] is threshold
/// k's Gini gain, or -inf where one side is empty.  One row-ordered pass:
/// every row adds its weights to the left and right, positive and negative
/// accumulators of every threshold, ANDed with its side mask, so each
/// accumulator sums its own rows' weights in row order with +0.0 for the
/// others — the bits of a per-threshold scan, as +0.0 added to a sum that
/// starts at +0.0 changes nothing.  An AND and never a multiply, because
/// inf * 0.0 is NaN.  The gains then follow ClassMass's expressions lane by
/// lane.
template <std::size_t Pairs>
void scorePass(const double* values, const double* positive, const double* negative, std::size_t n,
               const double* thresholds, double massTotal, double parentGini,
               double* gains) noexcept {
  Lanes threshold[Pairs];
  std::memcpy(threshold, thresholds, sizeof threshold);
  Lanes leftPositive[Pairs] = {};
  Lanes leftNegative[Pairs] = {};
  Lanes rightPositive[Pairs] = {};
  Lanes rightNegative[Pairs] = {};
  for (std::size_t j = 0; j < n; ++j) {
    const Lanes x{values[j], values[j]};
    const auto p = (LaneMask)Lanes{positive[j], positive[j]};
    const auto q = (LaneMask)Lanes{negative[j], negative[j]};
    for (std::size_t pair = 0; pair < Pairs; ++pair) {
      const LaneMask left = x <= threshold[pair];
      leftPositive[pair] += (Lanes)(p & left);
      leftNegative[pair] += (Lanes)(q & left);
      rightPositive[pair] += (Lanes)(p & ~left);
      rightNegative[pair] += (Lanes)(q & ~left);
    }
  }

  // ClassMass::total() and gini(); gini()'s 0.0 for a total <= 0 never
  // shows, since such a threshold is skipped.
  const Lanes zero{};
  const Lanes one{1.0, 1.0};
  const Lanes two{2.0, 2.0};
  const Lanes total{massTotal, massTotal};
  const Lanes parent{parentGini, parentGini};
  const Lanes empty{-kInf, -kInf};
  for (std::size_t pair = 0; pair < Pairs; ++pair) {
    const Lanes leftTotal = leftNegative[pair] + leftPositive[pair];
    const Lanes rightTotal = rightNegative[pair] + rightPositive[pair];
    const Lanes leftP = leftPositive[pair] / leftTotal;
    const Lanes rightP = rightPositive[pair] / rightTotal;
    const Lanes leftGini = two * leftP * (one - leftP);
    const Lanes rightGini = two * rightP * (one - rightP);
    const Lanes gain = parent - (leftTotal * leftGini + rightTotal * rightGini) / total;
    const LaneMask skip = (leftTotal <= zero) | (rightTotal <= zero);
    const Lanes scored = (Lanes)(((LaneMask)gain & ~skip) | ((LaneMask)empty & skip));
    std::memcpy(gains + pair * kLanes, &scored, sizeof scored);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// CartKernel

struct CartKernel::Growth {
  const TreeHyper& hyper;
  support::Rng& rng;
  std::span<std::uint32_t> rows;
};

CartKernel::CartKernel(const Dataset& data)
    : featureCount_(data.featureCount()),
      rows_(data.size()),
      columns_(static_cast<std::size_t>(featureCount_) * rows_),
      ranks_(columns_.size()),
      levelStart_{0},
      positive_(rows_),
      negative_(rows_) {
  for (std::size_t i = 0; i < rows_; ++i) {
    const RowView row = data.row(i);
    for (std::size_t f = 0; f < row.size(); ++f) columns_[f * rows_ + i] = row[f];
    (data.label(i) == 1 ? positive_ : negative_)[i] = data.weight(i);
  }
  for (std::size_t f = 0; f < static_cast<std::size_t>(featureCount_); ++f) {
    const auto column = std::span{columns_}.subspan(f * rows_, rows_);
    const auto first = static_cast<std::ptrdiff_t>(levels_.size());
    levels_.insert(levels_.end(), column.begin(), column.end());
    const auto levels = levels_.begin() + first;
    std::sort(levels, levels_.end());
    levels_.erase(std::unique(levels, levels_.end()), levels_.end());
    for (std::size_t i = 0; i < rows_; ++i) {
      const auto level = std::lower_bound(levels, levels_.end(), column[i]);
      ranks_[f * rows_ + i] = static_cast<std::uint32_t>(level - levels);
    }
    levelStart_.push_back(levels_.size());
  }
  present_.resize(levels_.size());
}

std::vector<TreeNode> CartKernel::grow(const TreeHyper& hyper, std::span<std::uint32_t> rows,
                                       support::Rng& rng) {
  if (rows.empty()) return {TreeNode{}};
  if (nodePositive_.size() < rows.size()) {
    nodePositive_.resize(rows.size());
    nodeNegative_.resize(rows.size());
    nodeValues_.resize(rows.size());
  }
  // Nodes grow in reused scratch and leave as one exact-size copy.
  nodes_.clear();
  Growth growth{hyper, rng, rows};
  buildNode(growth, 0, rows.size(), 0);
  return {nodes_.begin(), nodes_.end()};
}

int CartKernel::buildNode(Growth& growth, std::size_t begin, std::size_t end, int depth) {
  const std::uint32_t* rows = growth.rows.data() + begin;
  const std::size_t n = end - begin;

  ClassMass mass;
  for (std::size_t j = 0; j < n; ++j) {
    nodePositive_[j] = positive_[rows[j]];
    nodeNegative_[j] = negative_[rows[j]];
    mass.positive += nodePositive_[j];
    mass.negative += nodeNegative_[j];
  }

  const int nodeIndex = static_cast<int>(nodes_.size());
  nodes_.push_back(TreeNode{});
  nodes_.back().probability = mass.total() > 0.0 ? mass.positive / mass.total() : 0.5;

  const TreeHyper& hyper = growth.hyper;
  const bool pure = mass.positive == 0.0 || mass.negative == 0.0;
  if (depth >= hyper.maxDepth || mass.total() < hyper.minSplitWeight || pure) {
    return nodeIndex;
  }

  // Candidate features (all, or a random subset for forests).
  featureIds_.resize(static_cast<std::size_t>(featureCount_));
  std::iota(featureIds_.begin(), featureIds_.end(), 0);
  if (hyper.featureSubset > 0 && hyper.featureSubset < featureCount_) {
    growth.rng.shuffle(featureIds_);
    featureIds_.resize(static_cast<std::size_t>(hyper.featureSubset));
  }

  const double parentGini = mass.gini();
  double bestGain = 1e-12;
  int bestFeature = -1;
  double bestThreshold = 0.0;

  for (const int feature : featureIds_) {
    const double* column = columns_.data() + static_cast<std::size_t>(feature) * rows_;
    for (std::size_t j = 0; j < n; ++j) nodeValues_[j] = column[rows[j]];

    // Candidate thresholds: midpoints between the node's distinct values in
    // ascending order (subsampled to maxThresholds).  Where the feature has
    // few levels the node marks the ranks it holds; otherwise it sorts its
    // values.  Marking costs about n + levels and sorting n log n: on 3-6
    // rows they break even near 2n levels, on 10 rows near 3n, and from 20
    // rows on marking wins even at 8n.  Code-valued folds (at most 8 levels
    // a feature) sort only nodes of under 4 rows.  Only -0.0 and 0.0
    // compare equal without being the same bits, and either one gives the
    // same midpoint, so which of the two stands for both never shows.
    const std::size_t firstLevel = levelStart_[static_cast<std::size_t>(feature)];
    const std::size_t levelCount = levelStart_[static_cast<std::size_t>(feature) + 1] - firstLevel;
    sorted_.clear();
    if (levelCount <= 2 * n) {
      const std::uint32_t* ranks = ranks_.data() + static_cast<std::size_t>(feature) * rows_;
      for (std::size_t j = 0; j < n; ++j) present_[firstLevel + ranks[rows[j]]] = 1;
      for (std::size_t level = firstLevel; level < firstLevel + levelCount; ++level) {
        if (present_[level] != 0) sorted_.push_back(levels_[level]);
        present_[level] = 0;
      }
    } else {
      sorted_.assign(nodeValues_.begin(), nodeValues_.begin() + static_cast<std::ptrdiff_t>(n));
      std::sort(sorted_.begin(), sorted_.end());
      sorted_.erase(std::unique(sorted_.begin(), sorted_.end()), sorted_.end());
    }
    if (sorted_.size() < 2) continue;
    const std::size_t step =
        std::max<std::size_t>(1, sorted_.size() / static_cast<std::size_t>(hyper.maxThresholds));
    thresholds_.clear();
    for (std::size_t i = 0; i + 1 < sorted_.size(); i += step) {
      thresholds_.push_back(0.5 * (sorted_[i] + sorted_[i + 1]));
    }

    // Pad to whole lanes, whose padding gains are never read, and score
    // four thresholds a pass.
    const std::size_t count = thresholds_.size();
    thresholds_.resize((count + kLanes - 1) / kLanes * kLanes, thresholds_.back());
    gains_.resize(thresholds_.size());
    for (std::size_t k = 0; k < thresholds_.size(); k += 2 * kLanes) {
      const double* values = nodeValues_.data();
      if (k + 2 * kLanes <= thresholds_.size()) {
        scorePass<2>(values, nodePositive_.data(), nodeNegative_.data(), n, &thresholds_[k],
                     mass.total(), parentGini, &gains_[k]);
      } else {
        scorePass<1>(values, nodePositive_.data(), nodeNegative_.data(), n, &thresholds_[k],
                     mass.total(), parentGini, &gains_[k]);
      }
    }
    for (std::size_t k = 0; k < count; ++k) {
      if (gains_[k] > bestGain) {
        bestGain = gains_[k];
        bestFeature = feature;
        bestThreshold = thresholds_[k];
      }
    }
  }

  if (bestFeature < 0) return nodeIndex;

  // Stable partition of the node's span: left rows in place, right rows
  // after them, each side in row order.
  const double* column = columns_.data() + static_cast<std::size_t>(bestFeature) * rows_;
  std::uint32_t* span = growth.rows.data();
  std::size_t middle = begin;
  rightRows_.clear();
  for (std::size_t j = begin; j < end; ++j) {
    const std::uint32_t row = span[j];
    if (column[row] <= bestThreshold) {
      span[middle++] = row;
    } else {
      rightRows_.push_back(row);
    }
  }
  std::copy(rightRows_.begin(), rightRows_.end(), span + middle);

  const int left = buildNode(growth, begin, middle, depth + 1);
  const int right = buildNode(growth, middle, end, depth + 1);
  TreeNode& node = nodes_[static_cast<std::size_t>(nodeIndex)];
  node.feature = bestFeature;
  node.threshold = bestThreshold;
  node.left = left;
  node.right = right;
  return nodeIndex;
}

// ---------------------------------------------------------------------------
// DecisionTree

std::string DecisionTree::name() const {
  return "tree(depth=" + std::to_string(hyper_.maxDepth) + ")";
}

void DecisionTree::fit(const Dataset& data, support::Rng& rng) {
  CartKernel kernel{data};
  std::vector<std::uint32_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), std::uint32_t{0});
  fit(kernel, rows, rng);
}

void DecisionTree::fit(CartKernel& kernel, std::span<std::uint32_t> rows, support::Rng& rng) {
  nodes_ = kernel.grow(hyper_, rows, rng);
}

double DecisionTree::probaOf(RowView features) const {
  if (nodes_.empty()) return 0.5;
  int index = 0;
  for (;;) {
    const TreeNode& node = nodes_[static_cast<std::size_t>(index)];
    if (node.feature < 0) return node.probability;
    index = features[static_cast<std::size_t>(node.feature)] <= node.threshold ? node.left
                                                                               : node.right;
  }
}

std::unique_ptr<Classifier> DecisionTree::fresh() const {
  return std::make_unique<DecisionTree>(hyper_);
}

}  // namespace rtlock::ml
