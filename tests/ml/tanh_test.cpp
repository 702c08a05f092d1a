// The MLP's owned tanh (ml/tanh.hpp).
//
//   - Pinned 64-bit outputs for every branch of tanh and of its expm1, so a
//     change of an FMA point, a threshold or a constant shows here first.
//     The pins equal glibc 2.36's std::tanh and std::expm1 on x86-64 with
//     FMA, which this code reproduces; they are exact bit patterns, not
//     tolerances.
//   - The batch path (AVX2+FMA lanes) returns the scalar path's bits on a
//     fixed-seed sweep of 2^24 inputs over |x| in [2^-60, 64), cut into
//     spans of every length from 1 to 4096, so every tail length runs, and
//     on the neighbours of each threshold it branches on.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ml/tanh.hpp"
#include "support/rng.hpp"

namespace rtlock::ml {
namespace {

struct Pin {
  const char* branch;
  double input;
  std::uint64_t bits;
};

std::uint64_t bitsOf(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Runs one value through the batch path.
double batchTanh(double x) {
  std::vector<double> one{x};
  tanhInPlace(one);
  return one.front();
}

// tanh(x) for x >= 0; each input reaches the named branch of tanh or of the
// expm1 it calls (expm1(-2x) below 1, expm1(2x) from 1 on).
constexpr Pin kTanhPins[] = {
    {"+0", 0.0, 0x0000000000000000},
    {"subnormal", 0x1p-1070, 0x0000000000000010},
    {"|x| < 2^-55", 0x1p-60, 0x3c30000000000000},
    {"2^-55 <= |x| < 2^-54, expm1 k = 0", 0x1.8p-55, 0x3c88000000000000},
    {"expm1 k = 0", 0.1, 0x3fb983d7795f413a},
    {"expm1 k = 0", 0.125, 0x3fbfd5992bc4b834},
    {"expm1 k = -1", 0.3, 0x3fd2a4dda7d914fa},
    {"expm1 k = -2", 0.8, 0x3fe53fca0a748a42},
    {"expm1 k = -3, largest below 1", 0x1.ff7ced916872bp-1, 0x3fe85b89494cdea1},
    {"|x| = 1, expm1 2 <= k < 20", 1.0, 0x3fe85efab514f394},
    {"expm1 2 <= k < 20", 1.5, 0x3fecf6f9786df577},
    {"expm1 2 <= k < 20", 5.25, 0x3fefff8c81c6dc34},
    {"expm1 20 <= k <= 56", 10.0, 0x3feffffffdc96f35},
    {"expm1 k > 56", 21.0, 0x3ff0000000000000},
    {"|x| = 22", 22.0, 0x3ff0000000000000},
    {"|x| > 22", 30.0, 0x3ff0000000000000},
};

// expm1's branches, k = 1 included, which tanh never reaches.
constexpr Pin kExpm1Pins[] = {
    {"|x| < 2^-54", 0x1p-60, 0x3c30000000000000},
    {"|x| < 2^-54, negative", -0x1p-60, 0xbc30000000000000},
    {"k = 0", -0.2, 0xbfc733d4a7a67a9b},
    {"k = -1", -0.6, 0xbfdce04528d3f639},
    {"k = 1, reduced x < -0.25", 0.4, 0x3fdf7a0e4beeff80},
    {"k = 1, reduced x >= -0.25", 0.9, 0x3ff75a88cab8f178},
    {"k = 2 through the rounded quotient", 1.2, 0x40028f99761065a4},
    {"k <= -2", -1.6, 0xbfe98a1050412c7b},
    {"2 <= k < 20", 3.0, 0x403315e5bf6fb106},
    {"20 <= k <= 56", 20.0, 0x41bceb088a68e804},
    {"k > 56", 42.0, 0x43b8232558201159},
    {"k = 1024", 709.5, 0x7fe81e9b4b52d0c9},
    {"overflow", 710.0, 0x7ff0000000000000},
    {"x < -56 ln 2", -40.0, 0xbff0000000000000},
};

TEST(TanhTest, PinsEveryBranch) {
  for (const Pin& pin : kTanhPins) {
    SCOPED_TRACE(pin.branch);
    EXPECT_EQ(bitsOf(tanh(pin.input)), pin.bits) << std::hexfloat << pin.input;
    // Odd: the negative input gives the same bits with the sign set.
    EXPECT_EQ(bitsOf(tanh(-pin.input)), pin.bits ^ 0x8000000000000000u);
    EXPECT_EQ(bitsOf(batchTanh(pin.input)), pin.bits);
    EXPECT_EQ(bitsOf(batchTanh(-pin.input)), pin.bits ^ 0x8000000000000000u);
  }
}

TEST(TanhTest, PinsEveryExpm1Branch) {
  for (const Pin& pin : kExpm1Pins) {
    SCOPED_TRACE(pin.branch);
    EXPECT_EQ(bitsOf(expm1(pin.input)), pin.bits) << std::hexfloat << pin.input;
  }
}

TEST(TanhTest, InfinitiesAndNan) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(bitsOf(tanh(inf)), bitsOf(1.0));
  EXPECT_EQ(bitsOf(tanh(-inf)), bitsOf(-1.0));
  EXPECT_TRUE(std::isnan(tanh(nan)));
  EXPECT_EQ(bitsOf(batchTanh(inf)), bitsOf(1.0));
  EXPECT_EQ(bitsOf(batchTanh(-inf)), bitsOf(-1.0));
  EXPECT_TRUE(std::isnan(batchTanh(nan)));
  EXPECT_EQ(bitsOf(expm1(inf)), bitsOf(inf));
  EXPECT_EQ(bitsOf(expm1(-inf)), bitsOf(-1.0));
  EXPECT_TRUE(std::isnan(expm1(nan)));
}

/// |x| = 2^e * (1 + m) with e uniform in [-60, 5] and m uniform in [0, 1)
/// (52 random bits), random sign: log-uniform over [2^-60, 64), built from
/// integer draws alone.
double sweepInput(support::Rng& rng) {
  const auto exponent = static_cast<std::uint64_t>(1023 + rng.range(-60, 5));
  const std::uint64_t mantissa = rng() >> 12;
  const std::uint64_t sign = rng.coin() ? 0x8000000000000000u : 0;
  return std::bit_cast<double>(sign | exponent << 52 | mantissa);
}

/// Inputs around every threshold the batch path branches on: the scalar
/// fallback edges (2^-54, 22), |x| = 1, and the expm1 reduction edges
/// (2|x| at 0.5 ln 2 and 1.5 ln 2, in fdlibm's high-word form).
std::vector<double> thresholdNeighbours() {
  const double edges[] = {0x1p-55, 0x1p-54, 0x1.62e4300000000p-3,
                          0x1.0a2b200000000p-1, 1.0, 22.0};
  std::vector<double> out;
  for (const double edge : edges) {
    double below = edge;
    double above = edge;
    for (int step = 0; step < 64; ++step) {
      out.push_back(below);
      out.push_back(-above);
      below = std::nextafter(below, 0.0);
      above = std::nextafter(above, 64.0);
    }
  }
  return out;
}

TEST(TanhBatchTest, MatchesScalarOnSweep) {
  if (!tanhInPlaceVectorized()) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA: the batch path is the scalar path";
  }

  std::size_t mismatches = 0;
  const auto check = [&](const std::vector<double>& inputs) {
    std::vector<double> batch = inputs;
    tanhInPlace(batch);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
      const double scalar = tanh(inputs[i]);
      if (bitsOf(batch[i]) == bitsOf(scalar)) continue;
      if (++mismatches <= 10) {
        ADD_FAILURE() << std::hexfloat << "tanh(" << inputs[i] << "): batch " << batch[i]
                      << ", scalar " << scalar;
      }
    }
  };

  check(thresholdNeighbours());
  support::Rng rng{27};
  constexpr std::size_t kInputs = std::size_t{1} << 24;
  std::size_t done = 0;
  std::size_t length = 1;
  std::vector<double> inputs;
  while (done < kInputs) {
    // Lengths 1, 2, ..., 4096: tails of 0 to 3 lanes after the blocks.
    inputs.resize(std::min(length, kInputs - done));
    for (double& x : inputs) x = sweepInput(rng);
    check(inputs);
    done += inputs.size();
    length = length % 4096 + 1;
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace rtlock::ml
