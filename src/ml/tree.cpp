#include "ml/tree.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace rtlock::ml {

namespace {

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

}  // namespace

std::string DecisionTree::name() const {
  return "tree(depth=" + std::to_string(hyper_.maxDepth) + ")";
}

void DecisionTree::fit(const Dataset& data, support::Rng& rng) {
  nodes_.clear();
  std::vector<std::size_t> rows(data.size());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  if (rows.empty()) {
    nodes_.push_back(Node{});
    return;
  }
  std::vector<double> values;  // threshold scratch, reused by every node
  buildNode(data, rows, 0, rng, values);
}

int DecisionTree::buildNode(const Dataset& data, const std::vector<std::size_t>& rows, int depth,
                            support::Rng& rng, std::vector<double>& values) {
  ClassMass mass;
  for (const std::size_t row : rows) {
    if (data.label(row) == 1) {
      mass.positive += data.weight(row);
    } else {
      mass.negative += data.weight(row);
    }
  }

  const int nodeIndex = static_cast<int>(nodes_.size());
  nodes_.push_back(Node{});
  nodes_[static_cast<std::size_t>(nodeIndex)].probability =
      mass.total() > 0.0 ? mass.positive / mass.total() : 0.5;

  const bool pure = mass.positive == 0.0 || mass.negative == 0.0;
  if (depth >= hyper_.maxDepth || mass.total() < hyper_.minSplitWeight || pure) {
    return nodeIndex;
  }

  // Candidate features (all, or a random subset for forests).
  std::vector<int> featureIds(static_cast<std::size_t>(data.featureCount()));
  std::iota(featureIds.begin(), featureIds.end(), 0);
  if (hyper_.featureSubset > 0 &&
      hyper_.featureSubset < static_cast<int>(featureIds.size())) {
    rng.shuffle(featureIds);
    featureIds.resize(static_cast<std::size_t>(hyper_.featureSubset));
  }

  const double parentGini = mass.gini();
  double bestGain = 1e-12;
  int bestFeature = -1;
  double bestThreshold = 0.0;

  for (const int feature : featureIds) {
    // Candidate thresholds: midpoints between distinct sorted values
    // (subsampled to maxThresholds).  Only -0.0 and 0.0 compare equal
    // without being the same bits, and either one gives the same midpoint,
    // so which of the two unique() keeps never shows.
    values.clear();
    for (const std::size_t row : rows) {
      values.push_back(data.row(row)[static_cast<std::size_t>(feature)]);
    }
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    if (values.size() < 2) continue;
    const std::size_t step =
        std::max<std::size_t>(1, values.size() / static_cast<std::size_t>(hyper_.maxThresholds));

    for (std::size_t i = 0; i + 1 < values.size(); i += step) {
      const double threshold = 0.5 * (values[i] + values[i + 1]);
      ClassMass left;
      ClassMass right;
      for (const std::size_t row : rows) {
        const bool goLeft = data.row(row)[static_cast<std::size_t>(feature)] <= threshold;
        ClassMass& side = goLeft ? left : right;
        if (data.label(row) == 1) {
          side.positive += data.weight(row);
        } else {
          side.negative += data.weight(row);
        }
      }
      if (left.total() <= 0.0 || right.total() <= 0.0) continue;
      const double weightedGini =
          (left.total() * left.gini() + right.total() * right.gini()) / mass.total();
      const double gain = parentGini - weightedGini;
      if (gain > bestGain) {
        bestGain = gain;
        bestFeature = feature;
        bestThreshold = threshold;
      }
    }
  }

  if (bestFeature < 0) return nodeIndex;

  std::vector<std::size_t> leftRows;
  std::vector<std::size_t> rightRows;
  for (const std::size_t row : rows) {
    if (data.row(row)[static_cast<std::size_t>(bestFeature)] <= bestThreshold) {
      leftRows.push_back(row);
    } else {
      rightRows.push_back(row);
    }
  }

  const int left = buildNode(data, leftRows, depth + 1, rng, values);
  const int right = buildNode(data, rightRows, depth + 1, rng, values);
  Node& node = nodes_[static_cast<std::size_t>(nodeIndex)];
  node.feature = bestFeature;
  node.threshold = bestThreshold;
  node.left = left;
  node.right = right;
  return nodeIndex;
}

double DecisionTree::probaOf(RowView features) const {
  if (nodes_.empty()) return 0.5;
  int index = 0;
  for (;;) {
    const Node& node = nodes_[static_cast<std::size_t>(index)];
    if (node.feature < 0) return node.probability;
    index = features[static_cast<std::size_t>(node.feature)] <= node.threshold ? node.left
                                                                               : node.right;
  }
}

std::unique_ptr<Classifier> DecisionTree::fresh() const {
  return std::make_unique<DecisionTree>(hyper_);
}

}  // namespace rtlock::ml
