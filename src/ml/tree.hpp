// CART decision tree (weighted Gini impurity, numeric threshold splits) and
// the exact split-search kernel it shares with RandomForest; see
// src/ml/README.md, "Tree learners".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/model.hpp"

namespace rtlock::ml {

struct TreeHyper {
  int maxDepth = 8;
  double minSplitWeight = 2.0;  // do not split lighter nodes
  int maxThresholds = 32;       // candidate thresholds per feature
  /// Features considered per split; 0 = all (set by RandomForest).
  int featureSubset = 0;
};

struct TreeNode {
  int feature = -1;          // -1 = leaf
  double threshold = 0.0;    // go left if value <= threshold
  int left = -1;
  int right = -1;
  double probability = 0.5;  // leaf P(label == 1)
};

/// One fit's rows in the layout the split search reads, gathered once: a
/// column per feature and the weights split by class (a row's weight in its
/// own class's column, +0.0 in the other).  Trees grow over index spans
/// into these columns, so a forest's bootstrap samples are index arrays
/// rather than Datasets.  Holds the search's scratch too: one kernel grows
/// one tree at a time.
class CartKernel {
 public:
  explicit CartKernel(const Dataset& data);

  /// Grows a tree over `rows`, indices into the gathered rows listed in the
  /// order a Dataset of those rows would list them; a node's rows stay a
  /// contiguous span of `rows`, which the splits reorder in place.  Gives
  /// the nodes, Rng draws and bits of a per-threshold CART search over that
  /// Dataset.
  [[nodiscard]] std::vector<TreeNode> grow(const TreeHyper& hyper, std::span<std::uint32_t> rows,
                                           support::Rng& rng);

 private:
  /// One grow() call's hyperparameters, Rng and rows.
  struct Growth;

  int buildNode(Growth& growth, std::size_t begin, std::size_t end, int depth);

  int featureCount_;
  std::size_t rows_;
  /// Feature-major values, featureCount_ * rows_.
  std::vector<double> columns_;
  /// Per value, its rank among its feature's levels.
  std::vector<std::uint32_t> ranks_;
  /// Per feature, its distinct values in ascending order; feature f's run
  /// is [levelStart_[f], levelStart_[f + 1]).
  std::vector<double> levels_;
  std::vector<std::size_t> levelStart_;
  /// Per row, its weight where its label is 1 (positive_) or 0
  /// (negative_), else +0.0.
  std::vector<double> positive_;
  std::vector<double> negative_;

  // Scratch, reused by every node and every grow().
  std::vector<TreeNode> nodes_;
  std::vector<int> featureIds_;
  std::vector<std::uint8_t> present_;  // per level, whether the node holds it
  std::vector<double> nodePositive_;
  std::vector<double> nodeNegative_;
  std::vector<double> nodeValues_;
  std::vector<double> sorted_;
  std::vector<double> thresholds_;
  std::vector<double> gains_;
  std::vector<std::uint32_t> rightRows_;
};

class DecisionTree final : public Classifier {
 public:
  using Hyper = TreeHyper;

  explicit DecisionTree(Hyper hyper = Hyper()) : hyper_(hyper) {}

  [[nodiscard]] std::string name() const override;
  void fit(const Dataset& data, support::Rng& rng) override;
  /// Fits on the kernel's rows listed by `rows` (see CartKernel::grow).
  void fit(CartKernel& kernel, std::span<std::uint32_t> rows, support::Rng& rng);
  [[nodiscard]] std::unique_ptr<Classifier> fresh() const override;

 private:
  [[nodiscard]] double probaOf(RowView features) const override;

  Hyper hyper_;
  std::vector<TreeNode> nodes_;
};

}  // namespace rtlock::ml
