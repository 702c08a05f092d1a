#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <span>

namespace rtlock::ml {

namespace {

[[nodiscard]] double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }

/// Adam state for one parameter vector.
struct Adam {
  std::vector<double> m;
  std::vector<double> v;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  int step = 0;

  explicit Adam(std::size_t size) : m(size, 0.0), v(size, 0.0) {}

  void update(std::span<double> params, std::span<const double> gradient, double lr) {
    ++step;
    const double correction1 = 1.0 - std::pow(beta1, step);
    const double correction2 = 1.0 - std::pow(beta2, step);
    for (std::size_t i = 0; i < params.size(); ++i) {
      m[i] = beta1 * m[i] + (1.0 - beta1) * gradient[i];
      v[i] = beta2 * v[i] + (1.0 - beta2) * gradient[i] * gradient[i];
      const double mHat = m[i] / correction1;
      const double vHat = v[i] / correction2;
      params[i] -= lr * mHat / (std::sqrt(vHat) + epsilon);
    }
  }
};

}  // namespace

std::string MlpClassifier::name() const {
  return "mlp(hidden=" + std::to_string(hyper_.hiddenUnits) + ")";
}

void MlpClassifier::fit(const Dataset& data, support::Rng& rng) {
  inputs_ = data.featureCount();
  const auto hidden = static_cast<std::size_t>(hyper_.hiddenUnits);
  const auto inputs = static_cast<std::size_t>(inputs_);

  hiddenWeights_.assign(hidden * inputs, 0.0);
  hiddenBias_.assign(hidden, 0.0);
  outputWeights_.assign(hidden, 0.0);
  outputBias_ = 0.0;
  mean_.assign(inputs, 0.0);
  scale_.assign(inputs, 1.0);
  fitted_ = true;
  if (data.empty()) return;

  // Xavier-style initialization.
  const double initScale = std::sqrt(2.0 / static_cast<double>(inputs + hidden));
  for (double& w : hiddenWeights_) w = rng.gaussian() * initScale;
  for (double& w : outputWeights_) w = rng.gaussian() * initScale;

  // Standardization statistics.
  const double totalWeight = data.totalWeight();
  for (std::size_t i = 0; i < data.size(); ++i) {
    const RowView row = data.row(i);
    for (std::size_t f = 0; f < inputs; ++f) mean_[f] += data.weight(i) * row[f];
  }
  for (double& m : mean_) m /= totalWeight;
  std::vector<double> variance(inputs, 0.0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const RowView row = data.row(i);
    for (std::size_t f = 0; f < inputs; ++f) {
      const double delta = row[f] - mean_[f];
      variance[f] += data.weight(i) * delta * delta;
    }
  }
  for (std::size_t f = 0; f < inputs; ++f) {
    scale_[f] = std::sqrt(std::max(variance[f] / totalWeight, 1e-12));
  }

  Adam adamHiddenW{hiddenWeights_.size()};
  Adam adamHiddenB{hiddenBias_.size()};
  Adam adamOutputW{outputWeights_.size()};
  Adam adamOutputB{1};

  std::vector<double> gradHiddenW(hiddenWeights_.size());
  std::vector<double> gradHiddenB(hiddenBias_.size());
  std::vector<double> gradOutputW(outputWeights_.size());
  double gradOutputB = 0.0;

  // Within an epoch the weights are fixed, so the forward pass (z, tanh,
  // sigmoid) depends on a row's feature tuple alone: compute it once per
  // distinct tuple, on inputs normalized once per fit.  Gradients still
  // accumulate per row, in row order (src/ml/README.md, rule 5).
  const FeatureGroups groups = data.featureGroups();
  std::vector<double> normalized(groups.size() * inputs);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const RowView row = data.row(groups.firstRow[g]);
    for (std::size_t f = 0; f < inputs; ++f) {
      normalized[g * inputs + f] = (row[f] - mean_[f]) / scale_[f];
    }
  }
  std::vector<double> activations(groups.size() * hidden);
  std::vector<double> predictions(groups.size());

  // Input-major copies of the hidden weights and of their gradient put the
  // hidden units innermost: independent sums over contiguous memory, each
  // still fed in the original order.
  std::vector<double> weightsByInput(hidden * inputs);
  std::vector<double> gradByInput(hidden * inputs);
  std::vector<double> z(hidden);
  std::vector<double> hiddenError(hidden);

  for (int epoch = 0; epoch < hyper_.epochs; ++epoch) {
    for (std::size_t h = 0; h < hidden; ++h) {
      for (std::size_t f = 0; f < inputs; ++f) {
        weightsByInput[f * hidden + h] = hiddenWeights_[h * inputs + f];
      }
    }
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const double* x = &normalized[g * inputs];
      double* a = &activations[g * hidden];
      std::copy(hiddenBias_.begin(), hiddenBias_.end(), z.begin());
      for (std::size_t f = 0; f < inputs; ++f) {
        const double* w = &weightsByInput[f * hidden];
        for (std::size_t h = 0; h < hidden; ++h) z[h] += w[h] * x[f];
      }
      double output = outputBias_;
      for (std::size_t h = 0; h < hidden; ++h) {
        a[h] = std::tanh(z[h]);
        output += outputWeights_[h] * a[h];
      }
      predictions[g] = sigmoid(output);
    }

    std::fill(gradByInput.begin(), gradByInput.end(), 0.0);
    std::fill(gradHiddenB.begin(), gradHiddenB.end(), 0.0);
    std::fill(gradOutputW.begin(), gradOutputW.end(), 0.0);
    gradOutputB = 0.0;

    for (std::size_t i = 0; i < data.size(); ++i) {
      const std::size_t g = groups.groupOf[i];
      const double* x = &normalized[g * inputs];
      const double* a = &activations[g * hidden];
      const double error =
          data.weight(i) * (predictions[g] - static_cast<double>(data.label(i))) / totalWeight;

      gradOutputB += error;
      for (std::size_t h = 0; h < hidden; ++h) {
        gradOutputW[h] += error * a[h];
        hiddenError[h] = error * outputWeights_[h] * (1.0 - a[h] * a[h]);
        gradHiddenB[h] += hiddenError[h];
      }
      for (std::size_t f = 0; f < inputs; ++f) {
        double* gradient = &gradByInput[f * hidden];
        for (std::size_t h = 0; h < hidden; ++h) gradient[h] += hiddenError[h] * x[f];
      }
    }

    for (std::size_t h = 0; h < hidden; ++h) {
      for (std::size_t f = 0; f < inputs; ++f) {
        gradHiddenW[h * inputs + f] =
            gradByInput[f * hidden + h] + hyper_.l2 * hiddenWeights_[h * inputs + f];
      }
    }
    for (std::size_t j = 0; j < outputWeights_.size(); ++j) {
      gradOutputW[j] += hyper_.l2 * outputWeights_[j];
    }

    adamHiddenW.update(hiddenWeights_, gradHiddenW, hyper_.learningRate);
    adamHiddenB.update(hiddenBias_, gradHiddenB, hyper_.learningRate);
    adamOutputW.update(outputWeights_, gradOutputW, hyper_.learningRate);
    adamOutputB.update({&outputBias_, 1}, {&gradOutputB, 1}, hyper_.learningRate);
  }
}

void MlpClassifier::hiddenActivations(RowView features) const {
  const auto hidden = static_cast<std::size_t>(hyper_.hiddenUnits);
  const auto inputs = static_cast<std::size_t>(inputs_);
  activations_.resize(hidden);
  for (std::size_t h = 0; h < hidden; ++h) {
    double z = hiddenBias_[h];
    for (std::size_t f = 0; f < inputs && f < features.size(); ++f) {
      z += hiddenWeights_[h * inputs + f] * (features[f] - mean_[f]) / scale_[f];
    }
    activations_[h] = std::tanh(z);
  }
}

double MlpClassifier::probaOf(RowView features) const {
  if (!fitted_) return 0.5;
  hiddenActivations(features);
  double output = outputBias_;
  for (std::size_t h = 0; h < activations_.size(); ++h) {
    output += outputWeights_[h] * activations_[h];
  }
  return sigmoid(output);
}

std::unique_ptr<Classifier> MlpClassifier::fresh() const {
  return std::make_unique<MlpClassifier>(hyper_);
}

}  // namespace rtlock::ml
