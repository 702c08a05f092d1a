#include "ml/mlp.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "ml/tanh.hpp"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define RTLOCK_MLP_AVX2 1
#include <immintrin.h>
#endif

namespace rtlock::ml {

namespace {

[[nodiscard]] double sigmoid(double x) noexcept { return 1.0 / (1.0 + std::exp(-x)); }

constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEpsilon = 1e-8;

/// Adam moments for one parameter vector.  Every vector takes one step per
/// epoch, so the bias corrections 1 - beta^step are the caller's, computed
/// once per epoch for all four.
struct Adam {
  std::vector<double> m;
  std::vector<double> v;

  explicit Adam(std::size_t size) : m(size, 0.0), v(size, 0.0) {}

  void update(std::span<double> params, std::span<const double> gradient, double lr,
              double correction1, double correction2) {
    for (std::size_t i = 0; i < params.size(); ++i) {
      m[i] = kBeta1 * m[i] + (1.0 - kBeta1) * gradient[i];
      v[i] = kBeta2 * v[i] + (1.0 - kBeta2) * gradient[i] * gradient[i];
      const double mHat = m[i] / correction1;
      const double vHat = v[i] / correction2;
      params[i] -= lr * mHat / (std::sqrt(vHat) + kEpsilon);
    }
  }
};

/// What one epoch's backward pass reads: per group (distinct feature tuple)
/// its normalized inputs, hidden activations and prediction.
struct EpochState {
  const Dataset& data;
  const FeatureGroups& groups;
  std::span<const double> normalized;     // groups x inputs
  std::span<const double> activations;    // groups x hidden
  std::span<const double> predictions;    // groups
  std::span<const double> outputWeights;  // hidden
  double totalWeight;
  std::size_t hidden;
  std::size_t inputs;

  /// Row i's output error, weighted by its share of the total weight.
  [[nodiscard]] double error(std::size_t i) const noexcept {
    return data.weight(i) * (predictions[groups.groupOf[i]] - static_cast<double>(data.label(i))) /
           totalWeight;
  }
};

/// One epoch's gradient sums.  byInput is input-major (inputs x hidden): the
/// hidden units innermost, independent sums over contiguous memory.
struct Gradients {
  std::vector<double> byInput;
  std::vector<double> hiddenBias;
  std::vector<double> outputWeights;
  double outputBias = 0.0;
  std::vector<double> hiddenError;  // one row's, scratch
};

/// One row's updates of hidden units [from, hidden): the output-weight and
/// hidden-bias sums and the row's hidden errors.
void accumulateUnits(const EpochState& s, Gradients& grad, std::size_t from, double error,
                     const double* a) noexcept {
  for (std::size_t h = from; h < s.hidden; ++h) {
    grad.outputWeights[h] += error * a[h];
    grad.hiddenError[h] = error * s.outputWeights[h] * (1.0 - a[h] * a[h]);
    grad.hiddenBias[h] += grad.hiddenError[h];
  }
}

/// One row's updates of the hidden-weight sums of units [from, hidden).
void accumulateInputs(const EpochState& s, Gradients& grad, std::size_t from,
                      const double* x) noexcept {
  for (std::size_t f = 0; f < s.inputs; ++f) {
    double* gradient = &grad.byInput[f * s.hidden];
    for (std::size_t h = from; h < s.hidden; ++h) gradient[h] += grad.hiddenError[h] * x[f];
  }
}

/// Accumulates every row's gradients, in row order (rule 4).
void backward(const EpochState& s, Gradients& grad) noexcept {
  for (std::size_t i = 0; i < s.data.size(); ++i) {
    const std::size_t g = s.groups.groupOf[i];
    const double error = s.error(i);
    grad.outputBias += error;
    accumulateUnits(s, grad, 0, error, &s.activations[g * s.hidden]);
    accumulateInputs(s, grad, 0, &s.normalized[g * s.inputs]);
  }
}

#ifdef RTLOCK_MLP_AVX2

/// backward() with four hidden units a lane, the units past the last whole
/// lane block as there: the same expressions, in the same order, each
/// rounded on its own (no FMA), so the same bits.
__attribute__((target("avx2"))) void backwardAvx2(const EpochState& s, Gradients& grad) noexcept {
  const std::size_t lanes = s.hidden - s.hidden % 4;
  const __m256d one = _mm256_set1_pd(1.0);
  double* hiddenError = grad.hiddenError.data();
  for (std::size_t i = 0; i < s.data.size(); ++i) {
    const std::size_t g = s.groups.groupOf[i];
    const double* x = &s.normalized[g * s.inputs];
    const double* a = &s.activations[g * s.hidden];
    const double error = s.error(i);

    grad.outputBias += error;
    const __m256d errorLanes = _mm256_set1_pd(error);
    for (std::size_t h = 0; h < lanes; h += 4) {
      const __m256d activation = _mm256_loadu_pd(a + h);
      double* outputWeights = &grad.outputWeights[h];
      _mm256_storeu_pd(outputWeights, _mm256_add_pd(_mm256_loadu_pd(outputWeights),
                                                    _mm256_mul_pd(errorLanes, activation)));
      const __m256d unitError =
          _mm256_mul_pd(_mm256_mul_pd(errorLanes, _mm256_loadu_pd(&s.outputWeights[h])),
                        _mm256_sub_pd(one, _mm256_mul_pd(activation, activation)));
      _mm256_storeu_pd(hiddenError + h, unitError);
      double* hiddenBias = &grad.hiddenBias[h];
      _mm256_storeu_pd(hiddenBias, _mm256_add_pd(_mm256_loadu_pd(hiddenBias), unitError));
    }
    accumulateUnits(s, grad, lanes, error, a);
    for (std::size_t f = 0; f < s.inputs; ++f) {
      double* gradient = &grad.byInput[f * s.hidden];
      const __m256d input = _mm256_set1_pd(x[f]);
      for (std::size_t h = 0; h < lanes; h += 4) {
        _mm256_storeu_pd(gradient + h,
                         _mm256_add_pd(_mm256_loadu_pd(gradient + h),
                                       _mm256_mul_pd(_mm256_loadu_pd(hiddenError + h), input)));
      }
    }
    accumulateInputs(s, grad, lanes, x);
  }
}

[[nodiscard]] bool hasAvx2() noexcept {
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
}

#endif

void backwardPass(const EpochState& s, Gradients& grad) noexcept {
#ifdef RTLOCK_MLP_AVX2
  if (hasAvx2()) {
    backwardAvx2(s, grad);
    return;
  }
#endif
  backward(s, grad);
}

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
  Gradients grad;
  grad.byInput.resize(hidden * inputs);
  grad.hiddenBias.resize(hidden);
  grad.outputWeights.resize(hidden);
  grad.hiddenError.resize(hidden);

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
  const EpochState state{data,           groups,      normalized, activations, predictions,
                         outputWeights_, totalWeight, hidden,     inputs};

  // An input-major copy of the hidden weights puts the hidden units
  // innermost: independent sums over contiguous memory, each still fed in
  // the original order.
  std::vector<double> weightsByInput(hidden * inputs);

  for (int epoch = 0; epoch < hyper_.epochs; ++epoch) {
    for (std::size_t h = 0; h < hidden; ++h) {
      for (std::size_t f = 0; f < inputs; ++f) {
        weightsByInput[f * hidden + h] = hiddenWeights_[h * inputs + f];
      }
    }
    // Every group's pre-activations, then one batch tanh over all of them.
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const double* x = &normalized[g * inputs];
      double* z = &activations[g * hidden];
      std::copy(hiddenBias_.begin(), hiddenBias_.end(), z);
      for (std::size_t f = 0; f < inputs; ++f) {
        const double* w = &weightsByInput[f * hidden];
        for (std::size_t h = 0; h < hidden; ++h) z[h] += w[h] * x[f];
      }
    }
    tanhInPlace(activations);
    for (std::size_t g = 0; g < groups.size(); ++g) {
      const double* a = &activations[g * hidden];
      double output = outputBias_;
      for (std::size_t h = 0; h < hidden; ++h) output += outputWeights_[h] * a[h];
      predictions[g] = sigmoid(output);
    }

    std::fill(grad.byInput.begin(), grad.byInput.end(), 0.0);
    std::fill(grad.hiddenBias.begin(), grad.hiddenBias.end(), 0.0);
    std::fill(grad.outputWeights.begin(), grad.outputWeights.end(), 0.0);
    grad.outputBias = 0.0;
    backwardPass(state, grad);

    for (std::size_t h = 0; h < hidden; ++h) {
      for (std::size_t f = 0; f < inputs; ++f) {
        gradHiddenW[h * inputs + f] =
            grad.byInput[f * hidden + h] + hyper_.l2 * hiddenWeights_[h * inputs + f];
      }
    }
    for (std::size_t j = 0; j < outputWeights_.size(); ++j) {
      grad.outputWeights[j] += hyper_.l2 * outputWeights_[j];
    }

    const int step = epoch + 1;
    const double correction1 = 1.0 - std::pow(kBeta1, step);
    const double correction2 = 1.0 - std::pow(kBeta2, step);
    const double lr = hyper_.learningRate;
    adamHiddenW.update(hiddenWeights_, gradHiddenW, lr, correction1, correction2);
    adamHiddenB.update(hiddenBias_, grad.hiddenBias, lr, correction1, correction2);
    adamOutputW.update(outputWeights_, grad.outputWeights, lr, correction1, correction2);
    adamOutputB.update({&outputBias_, 1}, {&grad.outputBias, 1}, lr, correction1, correction2);
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
    activations_[h] = z;
  }
  tanhInPlace(activations_);
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
