#include "ml/dataset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "support/diagnostics.hpp"

namespace rtlock::ml {
namespace {

Dataset sample() {
  Dataset data{2};
  data.add({1.0, 2.0}, 1, 2.0);
  data.add({1.0, 2.0}, 1, 3.0);
  data.add({1.0, 2.0}, 0, 1.0);
  data.add({4.0, 5.0}, 0, 4.0);
  return data;
}

TEST(DatasetTest, BasicAccessors) {
  const Dataset data = sample();
  EXPECT_EQ(data.featureCount(), 2);
  EXPECT_EQ(data.size(), 4u);
  EXPECT_DOUBLE_EQ(data.totalWeight(), 10.0);
  EXPECT_DOUBLE_EQ(data.positiveFraction(), 0.5);
}

TEST(DatasetTest, ValidationRejectsBadRows) {
  Dataset data{2};
  EXPECT_THROW(data.add({1.0}, 0), support::ContractViolation);
  EXPECT_THROW(data.add({1.0, 2.0}, 2), support::ContractViolation);
  EXPECT_THROW(data.add({1.0, 2.0}, 0, 0.0), support::ContractViolation);
}

TEST(DatasetTest, AggregationMergesDuplicates) {
  const Dataset aggregated = sample().aggregated();
  EXPECT_EQ(aggregated.size(), 3u);  // (1,2)/1, (1,2)/0, (4,5)/0
  EXPECT_DOUBLE_EQ(aggregated.totalWeight(), 10.0);
  // The (1,2)/1 row accumulates weight 5.
  bool found = false;
  for (std::size_t i = 0; i < aggregated.size(); ++i) {
    if (aggregated.label(i) == 1) {
      EXPECT_DOUBLE_EQ(aggregated.weight(i), 5.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DatasetTest, SamplingCapsRowsAndPreservesMass) {
  support::Rng rng{1};
  Dataset data{1};
  for (int i = 0; i < 1000; ++i) data.add({static_cast<double>(i)}, i % 2);
  const Dataset sampled = data.sampled(100, rng);
  EXPECT_EQ(sampled.size(), 100u);
  EXPECT_NEAR(sampled.totalWeight(), 1000.0, 1e-6);
  const Dataset untouched = data.sampled(5000, rng);
  EXPECT_EQ(untouched.size(), 1000u);
}

TEST(DatasetTest, SplitPartitionsRows) {
  support::Rng rng{2};
  Dataset data{1};
  for (int i = 0; i < 1000; ++i) data.add({static_cast<double>(i)}, i % 2);
  const auto [train, test] = data.split(0.8, rng);
  EXPECT_EQ(train.size() + test.size(), 1000u);
  EXPECT_NEAR(static_cast<double>(train.size()), 800.0, 60.0);
}

TEST(DatasetTest, KFoldCoversEveryRowExactlyOnce) {
  support::Rng rng{3};
  Dataset data{1};
  for (int i = 0; i < 100; ++i) data.add({static_cast<double>(i)}, i % 2);
  const auto folds = data.kFold(5, rng);
  ASSERT_EQ(folds.size(), 5u);
  std::size_t validationTotal = 0;
  for (const auto& [train, validation] : folds) {
    EXPECT_EQ(train.size() + validation.size(), 100u);
    validationTotal += validation.size();
  }
  EXPECT_EQ(validationTotal, 100u);
}

TEST(DatasetTest, KFoldNeedsTwoFolds) {
  support::Rng rng{4};
  EXPECT_THROW((void)sample().kFold(1, rng), support::ContractViolation);
}

TEST(DatasetTest, RowViewsExposeTheFlatMatrix) {
  const Dataset data = sample();
  const RowView row0 = data.row(0);
  ASSERT_EQ(row0.size(), 2u);
  EXPECT_DOUBLE_EQ(row0[0], 1.0);
  EXPECT_DOUBLE_EQ(row0[1], 2.0);
  // Rows are contiguous slices of one backing matrix.
  EXPECT_EQ(data.row(1).data(), data.row(0).data() + 2);
  EXPECT_EQ(data.row(3).data(), data.row(0).data() + 6);
}

/// Reference implementation of the historical deep-copy kFold semantics:
/// shuffle positions, fold = position % folds, materialize per fold.
std::vector<std::pair<Dataset, Dataset>> referenceKFold(const Dataset& data, int folds,
                                                        support::Rng& rng) {
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  std::vector<int> foldOf(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    foldOf[order[i]] = static_cast<int>(i % static_cast<std::size_t>(folds));
  }
  std::vector<std::pair<Dataset, Dataset>> result;
  for (int fold = 0; fold < folds; ++fold) {
    Dataset train{data.featureCount()};
    Dataset validation{data.featureCount()};
    for (std::size_t i = 0; i < data.size(); ++i) {
      (foldOf[i] == fold ? validation : train).add(data.row(i), data.label(i), data.weight(i));
    }
    result.emplace_back(std::move(train), std::move(validation));
  }
  return result;
}

/// Exact equality: same rows in the same order, compared bit for bit (so
/// -0.0 differs from 0.0 and weights must match to the last ulp).
void expectSameRows(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.featureCount(), b.featureCount());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(std::memcmp(a.row(i).data(), b.row(i).data(), a.row(i).size_bytes()), 0) << i;
    EXPECT_EQ(a.label(i), b.label(i)) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.weight(i)), std::bit_cast<std::uint64_t>(b.weight(i)))
        << i;
  }
}

TEST(DatasetTest, KFoldViewsMatchHistoricalDeepCopySemantics) {
  support::Rng dataRng{11};
  Dataset data{2};
  for (int i = 0; i < 500; ++i) {
    data.add({static_cast<double>(dataRng.below(5)), static_cast<double>(dataRng.below(3))},
             i % 2, 1.0 + (i % 4));
  }
  // Identical Rng state for both implementations: fold membership must be
  // byte-identical under a fixed seed.
  support::Rng rngA{42};
  support::Rng rngB{42};
  const auto views = data.kFold(3, rngA);
  const auto reference = referenceKFold(data, 3, rngB);
  ASSERT_EQ(views.size(), reference.size());
  for (std::size_t fold = 0; fold < views.size(); ++fold) {
    expectSameRows(views[fold].first.materialized(), reference[fold].first);
    expectSameRows(views[fold].second.materialized(), reference[fold].second);
  }
  // View indices are ascending backing-row positions (the historical
  // iteration order).
  for (const auto& [train, validation] : views) {
    EXPECT_TRUE(std::is_sorted(train.indices().begin(), train.indices().end()));
    EXPECT_TRUE(std::is_sorted(validation.indices().begin(), validation.indices().end()));
  }
}

TEST(DatasetTest, ViewAggregationMatchesMaterializedAggregation) {
  support::Rng dataRng{12};
  Dataset data{2};
  for (int i = 0; i < 400; ++i) {
    data.add({static_cast<double>(dataRng.below(3)), static_cast<double>(dataRng.below(3))},
             static_cast<int>(dataRng.below(2)), 1.0);
  }
  support::Rng rng{13};
  for (const auto& [train, validation] : data.kFold(4, rng)) {
    expectSameRows(train.aggregated(), train.materialized().aggregated());
    expectSameRows(validation.aggregated(), validation.materialized().aggregated());
  }
}

/// One fused-aggregation case: a dataset and a fold count.
struct FoldCase {
  const char* name;
  Dataset data;
  int folds;
};

std::vector<FoldCase> foldCases() {
  std::vector<FoldCase> cases;
  support::Rng rng{14};
  Dataset codes{2};
  for (int i = 0; i < 600; ++i) {
    codes.add({static_cast<double>(rng.below(4)), static_cast<double>(rng.below(4))},
              static_cast<int>(rng.below(2)), 1.0 + (i % 3));
  }
  cases.push_back({"integer weights", std::move(codes), 3});

  // Counts scaled by rows/maxRows, as auto-ml's row cap does: weight sums
  // round, so their order shows.
  Dataset scaled{2};
  for (int i = 0; i < 500; ++i) {
    scaled.add({static_cast<double>(rng.below(3)), static_cast<double>(rng.below(5))},
               static_cast<int>(rng.below(2)), static_cast<double>(1 + rng.below(9)) * 1.37);
  }
  cases.push_back({"non-integer weights", std::move(scaled), 3});

  Dataset extended{6};
  for (int i = 0; i < 700; ++i) {
    const double row[] = {static_cast<double>(rng.below(4)), static_cast<double>(rng.below(4)),
                          static_cast<double>(1 + rng.below(2)), static_cast<double>(rng.below(3)),
                          static_cast<double>(rng.below(2)), static_cast<double>(rng.below(2))};
    extended.add(row, static_cast<int>(rng.below(2)), 0.5 + static_cast<double>(rng.below(4)));
  }
  cases.push_back({"6-feature rows", std::move(extended), 4});

  // 16 x 16 tuples x 2 labels: far past the probe tables' initial 64 slots.
  Dataset wide{2};
  for (int i = 0; i < 2000; ++i) {
    wide.add({static_cast<double>(rng.below(16)), static_cast<double>(rng.below(16))},
             static_cast<int>(rng.below(2)), 1.0);
  }
  cases.push_back({"more than 64 distinct tuples", std::move(wide), 3});

  Dataset signedZero{2};
  for (int i = 0; i < 200; ++i) {
    signedZero.add({rng.below(2) == 0 ? -0.0 : 0.0, static_cast<double>(rng.below(2))},
                   static_cast<int>(rng.below(2)), 1.0 + (i % 2));
  }
  cases.push_back({"-0.0 against 0.0", std::move(signedZero), 3});

  // Fewer rows than folds: one validation fold stays empty.
  Dataset tiny{2};
  tiny.add({1.0, 2.0}, 1, 1.5);
  tiny.add({1.0, 2.0}, 1, 2.5);
  cases.push_back({"fewer rows than folds", std::move(tiny), 3});
  return cases;
}

TEST(DatasetTest, KFoldAggregatedMatchesPerViewAggregation) {
  for (const auto& [name, data, folds] : foldCases()) {
    SCOPED_TRACE(name);
    // Same seed for both paths: kFoldAggregated consumes the Rng exactly
    // like kFold (one shuffle), so downstream draws cannot shift.
    support::Rng rngA{15};
    support::Rng rngB{15};
    const auto fused = data.kFoldAggregated(folds, rngA);
    const auto views = data.kFold(folds, rngB);
    EXPECT_EQ(rngA, rngB);  // identical Rng state afterwards
    ASSERT_EQ(fused.folds.size(), views.size());
    for (std::size_t fold = 0; fold < views.size(); ++fold) {
      expectSameRows(fused.folds[fold].first, views[fold].first.aggregated());
      expectSameRows(fused.folds[fold].second, views[fold].second.aggregated());
    }
    expectSameRows(fused.all, data.aggregated());
  }
}

TEST(DatasetTest, SampledIsDeterministicPerSeed) {
  support::Rng dataRng{16};
  Dataset data{1};
  for (int i = 0; i < 300; ++i) data.add({static_cast<double>(i)}, i % 2);
  support::Rng rngA{17};
  support::Rng rngB{17};
  expectSameRows(data.sampled(50, rngA), data.sampled(50, rngB));
}

TEST(DatasetTest, AddingARowViewOfItselfIsSafeAcrossReallocation) {
  Dataset data{2};
  data.add({1.0, 2.0}, 1);
  // Repeated self-appends force several reallocations of the backing matrix
  // while the source span views it.
  for (int i = 0; i < 200; ++i) data.add(data.row(0), data.label(0), data.weight(0));
  ASSERT_EQ(data.size(), 201u);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_DOUBLE_EQ(data.row(i)[0], 1.0) << i;
    EXPECT_DOUBLE_EQ(data.row(i)[1], 2.0) << i;
  }
}

TEST(DatasetTest, FeatureGroupsIgnoreLabelsAndWeights) {
  const FeatureGroups groups = sample().featureGroups();
  EXPECT_EQ(groups.groupOf, (std::vector<std::uint32_t>{0, 0, 0, 1}));
  EXPECT_EQ(groups.firstRow, (std::vector<std::uint32_t>{0, 3}));
}

TEST(DatasetTest, FeatureGroupsMatchOnExactBits) {
  Dataset data{2};
  data.add({0.0, 1.0}, 0);
  data.add({-0.0, 1.0}, 0);                      // differs only in the sign bit
  data.add({0.0, std::nextafter(1.0, 2.0)}, 1);  // one ulp away
  data.add({0.0, 1.0}, 1);
  const FeatureGroups groups = data.featureGroups();
  EXPECT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups.groupOf, (std::vector<std::uint32_t>{0, 1, 2, 0}));
}

TEST(DatasetTest, FeatureGroupsComeInFirstSeenOrder) {
  Dataset data{1};
  for (const double value : {5.0, 2.0, 5.0, 9.0, 2.0, 2.0}) data.add({value}, 0);
  const FeatureGroups groups = data.featureGroups();
  EXPECT_EQ(groups.groupOf, (std::vector<std::uint32_t>{0, 1, 0, 2, 1, 1}));
  EXPECT_EQ(groups.firstRow, (std::vector<std::uint32_t>{0, 1, 3}));

  // Past the probe table's first growth, ids still follow first appearance.
  Dataset many{1};
  for (int i = 0; i < 300; ++i) many.add({static_cast<double>((i * 7) % 150)}, i % 2);
  const FeatureGroups manyGroups = many.featureGroups();
  ASSERT_EQ(manyGroups.size(), 150u);
  for (std::uint32_t row = 0; row < 300; ++row) {
    EXPECT_EQ(manyGroups.groupOf[row], row % 150) << row;
  }
}

TEST(DatasetTest, FeatureGroupsOfEmptyDatasetAreEmpty) {
  const FeatureGroups groups = Dataset{3}.featureGroups();
  EXPECT_EQ(groups.size(), 0u);
  EXPECT_TRUE(groups.groupOf.empty());
}

TEST(DatasetTest, AggregationDistinguishesLabelsAndBitPatterns) {
  Dataset data{1};
  data.add({1.0}, 1, 2.0);
  data.add({1.0}, 0, 3.0);   // same features, other label: separate row
  data.add({-0.0}, 1, 1.0);  // -0.0 and 0.0 differ bitwise: separate rows
  data.add({0.0}, 1, 1.0);
  const Dataset aggregated = data.aggregated();
  EXPECT_EQ(aggregated.size(), 4u);
  EXPECT_DOUBLE_EQ(aggregated.totalWeight(), 7.0);
}

}  // namespace
}  // namespace rtlock::ml
