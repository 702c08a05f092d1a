#include "support/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>
#include <set>
#include <utility>

namespace rtlock::support {
namespace {

/// The historical below(): threshold division on every call.
std::uint64_t referenceBelow(Rng& rng, std::uint64_t bound) {
  const std::uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    const std::uint64_t r = rng();
    if (r >= threshold) return r % bound;
  }
}

/// The historical sampleIndices(): a dense n-slot pool, partially shuffled.
std::vector<std::size_t> referenceSampleIndices(Rng& rng, std::size_t n, std::size_t k) {
  std::vector<std::size_t> pool(n);
  std::iota(pool.begin(), pool.end(), std::size_t{0});
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::size_t>(referenceBelow(rng, n - i));
    std::swap(pool[i], pool[j]);
  }
  pool.resize(k);
  return pool;
}

/// The same partial shuffle over a sparse map of displaced slots, for
/// populations too large for the dense pool.
std::vector<std::size_t> sparseReferenceSampleIndices(Rng& rng, std::size_t n, std::size_t k) {
  std::map<std::size_t, std::size_t> displaced;
  const auto valueAt = [&displaced](std::size_t slot) {
    const auto it = displaced.find(slot);
    return it == displaced.end() ? slot : it->second;
  };
  std::vector<std::size_t> sample(k);
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = i + static_cast<std::size_t>(referenceBelow(rng, n - i));
    sample[i] = valueAt(j);
    displaced[j] = valueAt(i);
  }
  return sample;
}

TEST(RngTest, SameSeedSameStream) {
  Rng a{42};
  Rng b{42};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a{1};
  Rng b{2};
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng{7};
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(17), 17u);
  }
}

TEST(RngTest, BelowOneIsAlwaysZero) {
  Rng rng{7};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, BelowZeroThrows) {
  Rng rng{7};
  EXPECT_THROW((void)rng.below(0), ContractViolation);
}

TEST(RngTest, BelowMatchesReferenceValuesAndDrawCounts) {
  // 2^63 + 1 rejects almost half of all draws and 2^64 - 1 rejects r == 0,
  // so both branches of the deferred threshold are exercised.
  std::vector<std::uint64_t> bounds{1, 2, 3, 0x8000000000000000ULL, ~std::uint64_t{0}};
  for (const int k : {2, 7, 8, 31, 32, 33, 62, 63}) {
    const std::uint64_t power = std::uint64_t{1} << k;
    bounds.insert(bounds.end(), {power - 1, power, power + 1});
  }
  for (const std::uint64_t seed : {1ULL, 2ULL, 99ULL}) {
    Rng rng{seed};
    Rng reference{seed};
    for (int round = 0; round < 64; ++round) {
      for (const std::uint64_t bound : bounds) {
        ASSERT_EQ(rng.below(bound), referenceBelow(reference, bound)) << bound;
        ASSERT_TRUE(rng == reference) << "draw count differs at bound " << bound;
      }
    }
  }
}

TEST(RngTest, BelowCoversAllValues) {
  Rng rng{11};
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, RangeIsInclusive) {
  Rng rng{3};
  std::set<std::int64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const auto value = rng.range(-2, 2);
    EXPECT_GE(value, -2);
    EXPECT_LE(value, 2);
    seen.insert(value);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, UniformWithinUnitInterval) {
  Rng rng{5};
  for (int i = 0; i < 1000; ++i) {
    const double value = rng.uniform();
    EXPECT_GE(value, 0.0);
    EXPECT_LT(value, 1.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng{13};
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, CoinIsRoughlyFair) {
  Rng rng{17};
  int heads = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.coin()) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / n, 0.5, 0.02);
}

TEST(RngTest, ChanceRespectsProbability) {
  Rng rng{19};
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(RngTest, GaussianMomentsAreStandard) {
  Rng rng{23};
  double sum = 0.0;
  double sumSq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double value = rng.gaussian();
    sum += value;
    sumSq += value * value;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sumSq / n, 1.0, 0.08);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng{29};
  std::vector<int> values{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = values;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(RngTest, ShuffleActuallyPermutes) {
  Rng rng{31};
  std::vector<int> values(50);
  for (int i = 0; i < 50; ++i) values[static_cast<std::size_t>(i)] = i;
  auto shuffled = values;
  rng.shuffle(shuffled);
  EXPECT_NE(shuffled, values);
}

TEST(RngTest, PickReturnsContainedElement) {
  Rng rng{37};
  const std::vector<int> values{10, 20, 30};
  for (int i = 0; i < 100; ++i) {
    const int picked = rng.pick(values);
    EXPECT_TRUE(picked == 10 || picked == 20 || picked == 30);
  }
}

TEST(RngTest, PickEmptyThrows) {
  Rng rng{37};
  const std::vector<int> empty;
  EXPECT_THROW((void)rng.pick(empty), ContractViolation);
}

TEST(RngTest, SampleIndicesDistinct) {
  Rng rng{41};
  const auto sample = rng.sampleIndices(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 30u);
  for (const auto index : sample) EXPECT_LT(index, 100u);
}

TEST(RngTest, SampleIndicesFullPopulation) {
  Rng rng{43};
  const auto sample = rng.sampleIndices(10, 10);
  const std::set<std::size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngTest, SampleIndicesMatchDenseReference) {
  for (const std::uint64_t seed : {3ULL, 17ULL, 2024ULL}) {
    for (const std::size_t n : {0, 1, 2, 7, 64, 1000, 100000}) {
      for (const std::size_t k : {std::size_t{0}, std::size_t{1}, n / 3, n / 2, n - n / 10, n}) {
        if (k > n) continue;
        Rng rng{seed};
        Rng reference{seed};
        EXPECT_EQ(rng.sampleIndices(n, k), referenceSampleIndices(reference, n, k))
            << "n=" << n << " k=" << k << " seed=" << seed;
        EXPECT_TRUE(rng == reference) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(RngTest, SampleIndicesMatchDenseReferenceAtAutoMlScale) {
  // Auto-ml's 100k-row cap over harvests up to N_2046's 2.8M rows a cell,
  // the whole population, and the empty sample.
  const std::pair<std::size_t, std::size_t> shapes[] = {
      {2800000, 100000}, {175000, 100000}, {100001, 100000}, {100000, 100000},
      {2800000, 0},      {2800000, 1},     {5, 5},           {0, 0}};
  for (const std::uint64_t seed : {5ULL, 2046ULL}) {
    for (const auto& [n, k] : shapes) {
      Rng rng{seed};
      Rng reference{seed};
      EXPECT_EQ(rng.sampleIndices(n, k), referenceSampleIndices(reference, n, k))
          << "n=" << n << " k=" << k << " seed=" << seed;
      EXPECT_TRUE(rng == reference) << "n=" << n << " k=" << k << " seed=" << seed;
    }
  }
}

TEST(RngTest, SampleIndicesMatchSparseReferenceBeyond32BitSlots) {
  constexpr std::size_t kMax32 = std::numeric_limits<std::uint32_t>::max();
  for (const std::size_t n : {kMax32, kMax32 + 1, std::size_t{1} << 40}) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{5000}}) {
      Rng rng{77};
      Rng reference{77};
      EXPECT_EQ(rng.sampleIndices(n, k), sparseReferenceSampleIndices(reference, n, k))
          << "n=" << n << " k=" << k;
      EXPECT_TRUE(rng == reference) << "n=" << n << " k=" << k;
    }
  }
}

TEST(RngTest, SampleMoreThanPopulationThrows) {
  Rng rng{43};
  EXPECT_THROW((void)rng.sampleIndices(5, 6), ContractViolation);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent{47};
  Rng child = parent.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (parent() == child()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, SubstreamIsDeterministicPerIndex) {
  const Rng parent{53};
  Rng a = parent.substream(4);
  Rng b = parent.substream(4);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, SubstreamDoesNotAdvanceParent) {
  Rng parent{53};
  Rng witness{53};
  (void)parent.substream(0);
  (void)parent.substream(7);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(parent(), witness());
}

TEST(RngTest, SubstreamsOfDistinctIndicesDiverge) {
  const Rng parent{59};
  Rng a = parent.substream(0);
  Rng b = parent.substream(1);
  Rng c = parent.substream(0x100000000ULL);  // index aliasing guard
  int equalAb = 0;
  int equalAc = 0;
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    if (va == b()) ++equalAb;
    if (va == c()) ++equalAc;
  }
  EXPECT_LT(equalAb, 3);
  EXPECT_LT(equalAc, 3);
}

TEST(RngTest, SubstreamDependsOnParentState) {
  Rng early{61};
  Rng late{61};
  (void)late();  // advance by one draw
  Rng a = early.substream(2);
  Rng b = late.substream(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

}  // namespace
}  // namespace rtlock::support
