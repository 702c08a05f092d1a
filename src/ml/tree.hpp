// CART decision tree (weighted Gini impurity, numeric threshold splits).
#pragma once

#include <optional>

#include "ml/model.hpp"

namespace rtlock::ml {

struct TreeHyper {
  int maxDepth = 8;
  double minSplitWeight = 2.0;  // do not split lighter nodes
  int maxThresholds = 32;       // candidate thresholds per feature
  /// Features considered per split; 0 = all (set by RandomForest).
  int featureSubset = 0;
};

class DecisionTree final : public Classifier {
 public:
  using Hyper = TreeHyper;

  explicit DecisionTree(Hyper hyper = Hyper()) : hyper_(hyper) {}

  [[nodiscard]] std::string name() const override;
  void fit(const Dataset& data, support::Rng& rng) override;
  [[nodiscard]] std::unique_ptr<Classifier> fresh() const override;

 private:
  [[nodiscard]] double probaOf(RowView features) const override;

  struct Node {
    int feature = -1;          // -1 = leaf
    double threshold = 0.0;    // go left if value <= threshold
    int left = -1;
    int right = -1;
    double probability = 0.5;  // leaf P(label == 1)
  };

  /// `values` is caller-owned scratch for the threshold candidates.
  int buildNode(const Dataset& data, const std::vector<std::size_t>& rows, int depth,
                support::Rng& rng, std::vector<double>& values);

  Hyper hyper_;
  std::vector<Node> nodes_;
};

}  // namespace rtlock::ml
