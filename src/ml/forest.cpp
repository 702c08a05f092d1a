#include "ml/forest.hpp"

#include <cmath>
#include <cstdint>
#include <vector>

namespace rtlock::ml {

std::string RandomForest::name() const {
  return "forest(trees=" + std::to_string(hyper_.trees) +
         ",depth=" + std::to_string(hyper_.maxDepth) + ")";
}

void RandomForest::fit(const Dataset& data, support::Rng& rng) {
  trees_.clear();
  if (data.empty()) return;

  const int subset = hyper_.featureSubset > 0
                         ? hyper_.featureSubset
                         : static_cast<int>(std::ceil(std::sqrt(data.featureCount())));

  DecisionTree::Hyper treeHyper;
  treeHyper.maxDepth = hyper_.maxDepth;
  treeHyper.featureSubset = subset;

  // Bootstrap by row (weights carried over): classic bagging.  Each sample
  // is an index array into one gathered copy of the rows, drawn in the
  // order a copied Dataset would list them.
  CartKernel kernel{data};
  std::vector<std::uint32_t> rows(data.size());
  trees_.reserve(static_cast<std::size_t>(hyper_.trees));
  for (int t = 0; t < hyper_.trees; ++t) {
    for (std::uint32_t& row : rows) row = static_cast<std::uint32_t>(rng.below(data.size()));
    DecisionTree tree{treeHyper};
    tree.fit(kernel, rows, rng);
    trees_.push_back(std::move(tree));
  }
}

double RandomForest::probaOf(RowView features) const {
  if (trees_.empty()) return 0.5;
  double sum = 0.0;
  for (const auto& tree : trees_) sum += tree.predictProba(features);
  return sum / static_cast<double>(trees_.size());
}

std::unique_ptr<Classifier> RandomForest::fresh() const {
  return std::make_unique<RandomForest>(hyper_);
}

}  // namespace rtlock::ml
