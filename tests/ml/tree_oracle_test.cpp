// Differential suite for the CART kernel behind DecisionTree and
// RandomForest: both must give exactly the predictions and leave exactly the
// Rng state of the plain learners they replaced, run here as the oracle —
// a tree that rescans the node's rows once per candidate threshold, and a
// forest that copies every bootstrap sample into a Dataset of its own.
//
// Tables are seeded and random: 2 and 6 features, small integer codes,
// both -0.0 and 0.0, features with more than 64 distinct values (the
// threshold search's step > 1 branch); integer and non-integer weights, and
// subnormal, huge and inf ones.  Hyperparameters cover the maxDepth,
// minSplitWeight and maxThresholds edges and every feature-subset size.  Each fit compares the
// predictProba bits on every training row and on a grid of probe rows, and
// the next draws of the Rng it left.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "ml/forest.hpp"
#include "ml/tree.hpp"

namespace rtlock::ml {
namespace {

// ---------------------------------------------------------------------------
// The oracle: the per-threshold learners, as they were before the kernel.

struct OracleMass {
  double negative = 0.0;
  double positive = 0.0;

  [[nodiscard]] double total() const noexcept { return negative + positive; }

  [[nodiscard]] double gini() const noexcept {
    const double sum = total();
    if (sum <= 0.0) return 0.0;
    const double p = positive / sum;
    return 2.0 * p * (1.0 - p);
  }
};

class OracleTree {
 public:
  explicit OracleTree(TreeHyper hyper) : hyper_(hyper) {}

  void fit(const Dataset& data, support::Rng& rng) {
    nodes_.clear();
    std::vector<std::size_t> rows(data.size());
    std::iota(rows.begin(), rows.end(), std::size_t{0});
    if (rows.empty()) {
      nodes_.push_back(TreeNode{});
      return;
    }
    std::vector<double> values;
    buildNode(data, rows, 0, rng, values);
  }

  [[nodiscard]] double predictProba(RowView features) const {
    if (nodes_.empty()) return 0.5;
    int index = 0;
    for (;;) {
      const TreeNode& node = nodes_[static_cast<std::size_t>(index)];
      if (node.feature < 0) return node.probability;
      index = features[static_cast<std::size_t>(node.feature)] <= node.threshold ? node.left
                                                                                 : node.right;
    }
  }

 private:
  int buildNode(const Dataset& data, const std::vector<std::size_t>& rows, int depth,
                support::Rng& rng, std::vector<double>& values) {
    OracleMass mass;
    for (const std::size_t row : rows) {
      if (data.label(row) == 1) {
        mass.positive += data.weight(row);
      } else {
        mass.negative += data.weight(row);
      }
    }

    const int nodeIndex = static_cast<int>(nodes_.size());
    nodes_.push_back(TreeNode{});
    nodes_[static_cast<std::size_t>(nodeIndex)].probability =
        mass.total() > 0.0 ? mass.positive / mass.total() : 0.5;

    const bool pure = mass.positive == 0.0 || mass.negative == 0.0;
    if (depth >= hyper_.maxDepth || mass.total() < hyper_.minSplitWeight || pure) {
      return nodeIndex;
    }

    std::vector<int> featureIds(static_cast<std::size_t>(data.featureCount()));
    std::iota(featureIds.begin(), featureIds.end(), 0);
    if (hyper_.featureSubset > 0 && hyper_.featureSubset < static_cast<int>(featureIds.size())) {
      rng.shuffle(featureIds);
      featureIds.resize(static_cast<std::size_t>(hyper_.featureSubset));
    }

    const double parentGini = mass.gini();
    double bestGain = 1e-12;
    int bestFeature = -1;
    double bestThreshold = 0.0;

    for (const int feature : featureIds) {
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
        OracleMass left;
        OracleMass right;
        for (const std::size_t row : rows) {
          const bool goLeft = data.row(row)[static_cast<std::size_t>(feature)] <= threshold;
          OracleMass& side = goLeft ? left : right;
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
    TreeNode& node = nodes_[static_cast<std::size_t>(nodeIndex)];
    node.feature = bestFeature;
    node.threshold = bestThreshold;
    node.left = left;
    node.right = right;
    return nodeIndex;
  }

  TreeHyper hyper_;
  std::vector<TreeNode> nodes_;
};

class OracleForest {
 public:
  explicit OracleForest(ForestHyper hyper) : hyper_(hyper) {}

  void fit(const Dataset& data, support::Rng& rng) {
    trees_.clear();
    if (data.empty()) return;
    const int subset = hyper_.featureSubset > 0
                           ? hyper_.featureSubset
                           : static_cast<int>(std::ceil(std::sqrt(data.featureCount())));
    TreeHyper treeHyper;
    treeHyper.maxDepth = hyper_.maxDepth;
    treeHyper.featureSubset = subset;
    for (int t = 0; t < hyper_.trees; ++t) {
      Dataset bootstrap{data.featureCount()};
      for (std::size_t i = 0; i < data.size(); ++i) {
        const auto row = static_cast<std::size_t>(rng.below(data.size()));
        bootstrap.add(data.row(row), data.label(row), data.weight(row));
      }
      OracleTree tree{treeHyper};
      tree.fit(bootstrap, rng);
      trees_.push_back(std::move(tree));
    }
  }

  [[nodiscard]] double predictProba(RowView features) const {
    if (trees_.empty()) return 0.5;
    double sum = 0.0;
    for (const auto& tree : trees_) sum += tree.predictProba(features);
    return sum / static_cast<double>(trees_.size());
  }

 private:
  ForestHyper hyper_;
  std::vector<OracleTree> trees_;
};

// ---------------------------------------------------------------------------
// Seeded random tables.

constexpr double kInf = std::numeric_limits<double>::infinity();

enum class Values { Codes, SignedZeros, Dense };
enum class Weights { Integer, Extreme, Scaled, Fractional };

struct TableSpec {
  int features;
  int rows;
  Values values;
  Weights weights;
};

double drawValue(Values values, support::Rng& rng) {
  switch (values) {
    case Values::Codes:
      return static_cast<double>(rng.below(8));
    case Values::SignedZeros: {
      // -0.0 and 0.0 both occur, next to small signed codes.
      const auto code = static_cast<int>(rng.below(7)) - 3;
      if (code == 0) return rng.coin() ? -0.0 : 0.0;
      return static_cast<double>(code);
    }
    case Values::Dense:
      // Up to 600 distinct quarter steps: well over 64 distinct values per
      // feature on the larger tables, so the root subsamples thresholds.
      return 0.25 * static_cast<double>(rng.below(600)) - 40.0;
  }
  return 0.0;
}

double drawWeight(Weights weights, support::Rng& rng) {
  switch (weights) {
    case Weights::Integer:
      return static_cast<double>(1 + rng.below(40));
    case Weights::Extreme: {
      // Dataset::add takes positive weights only, so the nearest thing to a
      // zero weight is the smallest subnormal.  1e300 makes sums overflow to
      // inf; an inf weight leaves its node's gains NaN or 0, so that node
      // stays a leaf.
      const double extremes[] = {0x1p-1074, 1e-300, 1.0, 3.0, 1e300, kInf};
      return extremes[rng.below(std::size(extremes))];
    }
    case Weights::Scaled:
      // Counts scaled by rows / maxRows, as auto-ml's row cap does.
      return static_cast<double>(1 + rng.below(30)) * (100003.0 / 100000.0);
    case Weights::Fractional:
      return 3.0 * rng.uniform() + 0x1p-30;
  }
  return 1.0;
}

Dataset randomTable(const TableSpec& spec, support::Rng& rng) {
  Dataset data{spec.features};
  std::vector<double> row(static_cast<std::size_t>(spec.features));
  std::array<double, 3> slopes{};
  for (double& slope : slopes) slope = rng.uniform() - 0.5;
  for (int r = 0; r < spec.rows; ++r) {
    for (double& value : row) value = drawValue(spec.values, rng);
    // A noisy linear rule, so the trees find real splits.
    double score = 0.0;
    for (std::size_t f = 0; f < row.size(); ++f) score += slopes[f % slopes.size()] * row[f];
    const bool lean = score > 0.0;
    const int label = rng.below(10) < (lean ? 8u : 2u) ? 1 : 0;
    data.add(row, label, drawWeight(spec.weights, rng));
  }
  return data;
}

/// Training rows plus a grid: per feature, the row's value, the value
/// nudged to either side and every feature set to one of a few fixed
/// levels, so probes land on both sides of the learned thresholds.
std::vector<std::vector<double>> probeRows(const Dataset& data) {
  std::vector<std::vector<double>> probes;
  for (std::size_t i = 0; i < data.size(); ++i) {
    const RowView row = data.row(i);
    probes.emplace_back(row.begin(), row.end());
    std::vector<double> below{row.begin(), row.end()};
    std::vector<double> above{row.begin(), row.end()};
    const std::size_t f = i % row.size();
    below[f] = std::nextafter(row[f], -1e300);
    above[f] = row[f] + 0.125;
    probes.push_back(std::move(below));
    probes.push_back(std::move(above));
  }
  const double levels[] = {-1e9, -40.0, -3.0, -0.0, 0.0, 0.5, 2.0, 3.5, 7.0, 50.0, 1e9};
  for (const double level : levels) {
    probes.emplace_back(static_cast<std::size_t>(data.featureCount()), level);
  }
  return probes;
}

using Draws = std::array<std::uint64_t, 4>;

Draws nextDraws(support::Rng rng) { return {rng(), rng(), rng(), rng()}; }

/// Fits `model` and `oracle` from one seed and compares prediction bits on
/// every probe and the Rng state each fit leaves.
template <typename Model, typename Oracle>
void expectSameFit(Model& model, Oracle& oracle, const Dataset& data, std::uint64_t seed,
                   const std::string& what) {
  support::Rng modelRng{seed};
  support::Rng oracleRng{seed};
  model.fit(data, modelRng);
  oracle.fit(data, oracleRng);
  ASSERT_EQ(nextDraws(modelRng), nextDraws(oracleRng)) << what << ": Rng state after fit";
  for (const auto& probe : probeRows(data)) {
    const auto got = std::bit_cast<std::uint64_t>(model.predictProba(probe));
    const auto want = std::bit_cast<std::uint64_t>(oracle.predictProba(probe));
    ASSERT_EQ(got, want) << what << ": predictProba bits";
  }
}

TableSpec specFor(std::uint64_t seed, support::Rng& rng) {
  const Values values[] = {Values::Codes, Values::SignedZeros, Values::Dense};
  const Weights weights[] = {Weights::Integer, Weights::Extreme, Weights::Scaled,
                             Weights::Fractional};
  TableSpec spec;
  spec.features = seed % 2 == 0 ? 2 : 6;
  spec.values = values[seed / 2 % 3];
  spec.weights = weights[seed / 6 % 4];
  // Dense tables run up to 160 rows, enough for ~150 distinct values at
  // the root (step 4); the others stay near auto-ml's fold sizes.
  if (spec.values == Values::Dense) {
    spec.rows = 60 + static_cast<int>(rng.below(101));
  } else {
    spec.rows = 1 + static_cast<int>(rng.below(70));
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Checks.

TEST(TreeOracleTest, TreesMatchOnRandomTables) {
  // The portfolio's settings plus the depth, split-weight, threshold-count
  // and feature-subset edges.
  const TreeHyper hypers[] = {
      {6, 2.0, 32, 0},   // tree(depth=6)
      {12, 2.0, 32, 0},  // tree(depth=12)
      {0, 2.0, 32, 0},   // a single leaf
      {1, 2.0, 32, 0},   // one split at most
      {8, 0.0, 32, 0},   // no minimum split weight
      {8, 60.0, 32, 0},  // a minimum above most node masses
      {8, 2.0, 1, 0},    // one threshold per feature
      {8, 2.0, 3, 0},    // three thresholds per feature
      {10, 2.0, 32, 1},  // one feature per split
      {10, 2.0, 32, 3},  // three per split, the forest's pick at 6 features
      {10, 2.0, 32, 2},  // two per split, the forest's pick at 2 features
  };
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    support::Rng rng{seed};
    const TableSpec spec = specFor(seed, rng);
    const Dataset data = randomTable(spec, rng);
    const TreeHyper& hyper = hypers[seed % std::size(hypers)];
    DecisionTree tree{hyper};
    OracleTree oracle{hyper};
    expectSameFit(tree, oracle, data, seed * 7919, "tree, table seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

TEST(TreeOracleTest, ForestsMatchOnRandomTables) {
  // The portfolio's forest (subset ceil(sqrt(features)): 2 of 2, 3 of 6)
  // and forests with an explicit subset or shallow trees.
  const ForestHyper hypers[] = {{15, 10, 0}, {15, 10, 0}, {7, 3, 1}, {5, 10, 6}, {4, 0, 0}};
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    support::Rng rng{seed + 50000};
    const TableSpec spec = specFor(seed, rng);
    const Dataset data = randomTable(spec, rng);
    const ForestHyper& hyper = hypers[seed % std::size(hypers)];
    RandomForest forest{hyper};
    OracleForest oracle{hyper};
    expectSameFit(forest, oracle, data, seed * 104729,
                  "forest, table seed " + std::to_string(seed));
    if (HasFatalFailure()) return;
  }
}

TEST(TreeOracleTest, EmptyAndSingleRowTables) {
  Dataset empty{2};
  DecisionTree tree{};
  OracleTree oracleTree{TreeHyper{}};
  expectSameFit(tree, oracleTree, empty, 3, "empty tree");
  RandomForest forest{};
  OracleForest oracleForest{ForestHyper{}};
  expectSameFit(forest, oracleForest, empty, 3, "empty forest");

  Dataset single{2};
  single.add({1.0, -0.0}, 1, 2.5);
  expectSameFit(tree, oracleTree, single, 5, "single-row tree");
  expectSameFit(forest, oracleForest, single, 5, "single-row forest");
}

TEST(TreeOracleTest, DenseTablesReachTheSubsamplingBranch) {
  // The generator's dense tables must really take the step > 1 branch: at
  // least one has more than 64 distinct values in a feature, and one more
  // than 128 (step 4 at maxThresholds 32).
  std::size_t mostDistinct = 0;
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    support::Rng rng{seed};
    const TableSpec spec = specFor(seed, rng);
    if (spec.values != Values::Dense) continue;
    const Dataset data = randomTable(spec, rng);
    for (int f = 0; f < data.featureCount(); ++f) {
      std::vector<double> values;
      for (std::size_t i = 0; i < data.size(); ++i) {
        values.push_back(data.row(i)[static_cast<std::size_t>(f)]);
      }
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      mostDistinct = std::max(mostDistinct, values.size());
    }
  }
  EXPECT_GT(mostDistinct, 128u);
}

}  // namespace
}  // namespace rtlock::ml
