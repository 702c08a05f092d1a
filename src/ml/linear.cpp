#include "ml/linear.hpp"

#include <cmath>

namespace rtlock::ml {

namespace {
[[nodiscard]] double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }
}  // namespace

std::string LogisticRegression::name() const {
  return "logistic(lr=" + std::to_string(hyper_.learningRate) +
         ",l2=" + std::to_string(hyper_.l2) + ")";
}

void LogisticRegression::fit(const Dataset& data, support::Rng& /*rng*/) {
  const auto features = static_cast<std::size_t>(data.featureCount());
  weights_.assign(features, 0.0);
  bias_ = 0.0;
  mean_.assign(features, 0.0);
  scale_.assign(features, 1.0);
  fitted_ = true;
  if (data.empty()) return;

  // Standardize features for stable step sizes.
  const double totalWeight = data.totalWeight();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const RowView row = data.row(i);
    for (std::size_t f = 0; f < features; ++f) {
      mean_[f] += data.weight(i) * row[f];
    }
  }
  for (double& m : mean_) m /= totalWeight;
  std::vector<double> variance(features, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const RowView row = data.row(i);
    for (std::size_t f = 0; f < features; ++f) {
      const double delta = row[f] - mean_[f];
      variance[f] += data.weight(i) * delta * delta;
    }
  }
  for (std::size_t f = 0; f < features; ++f) {
    scale_[f] = std::sqrt(std::max(variance[f] / totalWeight, 1e-12));
  }

  // Within an epoch the weights are fixed, so z and its sigmoid depend on a
  // row's feature tuple alone: compute them once per distinct tuple, on
  // inputs centered once per fit (the division by the scale stays in place:
  // w * (x - mean) / scale rounds differently from w * ((x - mean) / scale)).
  // Gradients still accumulate per row, in row order (src/ml/README.md,
  // rule 5).
  const FeatureGroups groups = data.featureGroups();
  std::vector<double> centered(groups.size() * features);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const RowView row = data.row(groups.firstRow[g]);
    for (std::size_t f = 0; f < features; ++f) centered[g * features + f] = row[f] - mean_[f];
  }
  std::vector<double> probabilities(groups.size());

  std::vector<double> gradient(features);
  for (int epoch = 0; epoch < hyper_.epochs; ++epoch) {
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const double* x = &centered[g * features];
      double z = bias_;
      for (std::size_t f = 0; f < features; ++f) z += weights_[f] * x[f] / scale_[f];
      probabilities[g] = sigmoid(z);
    }

    std::fill(gradient.begin(), gradient.end(), 0.0);
    double biasGradient = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      const std::size_t g = groups.groupOf[i];
      const double* x = &centered[g * features];
      const double error = probabilities[g] - static_cast<double>(data.label(i));
      const double scaledError = data.weight(i) * error / totalWeight;
      for (std::size_t f = 0; f < features; ++f) {
        gradient[f] += scaledError * x[f] / scale_[f];
      }
      biasGradient += scaledError;
    }
    for (std::size_t f = 0; f < features; ++f) {
      gradient[f] += hyper_.l2 * weights_[f];
      weights_[f] -= hyper_.learningRate * gradient[f];
    }
    bias_ -= hyper_.learningRate * biasGradient;
  }
}

double LogisticRegression::decision(RowView features) const {
  double z = bias_;
  for (std::size_t f = 0; f < features.size() && f < weights_.size(); ++f) {
    z += weights_[f] * (features[f] - mean_[f]) / scale_[f];
  }
  return z;
}

double LogisticRegression::probaOf(RowView features) const {
  if (!fitted_) return 0.5;
  return sigmoid(decision(features));
}

std::unique_ptr<Classifier> LogisticRegression::fresh() const {
  return std::make_unique<LogisticRegression>(hyper_);
}

}  // namespace rtlock::ml
