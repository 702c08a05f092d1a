// Request vocabulary parsers shared by the CLI flags and the HTTP bodies.
#include "service/types.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace rtlock::service {
namespace {

TEST(ParseSeedListTest, ListsAndRangesExpandInOrder) {
  EXPECT_EQ(parseSeedList("3, 1..3,7"), (std::vector<std::uint64_t>{3, 1, 2, 3, 7}));
  const std::vector<std::uint64_t> full = parseSeedList("1..10000");
  ASSERT_EQ(full.size(), kMaxSeeds);
  EXPECT_EQ(full.front(), 1u);
  EXPECT_EQ(full.back(), 10000u);
}

TEST(ParseSeedListTest, CapsTheWholeListNotJustEachRange) {
  // 100 ranges of 10001 seeds each: every range passed the old per-range
  // check, and the list expanded to 1000100 seeds.
  std::string ranges;
  for (int i = 0; i < 100; ++i) ranges += "0..10000,";
  EXPECT_THROW((void)parseSeedList(ranges), BadRequest);
  EXPECT_THROW((void)parseSeedList("1..5000,5001..10001"), BadRequest);
  EXPECT_THROW((void)parseSeedList("0..18446744073709551615"), BadRequest);
  EXPECT_NO_THROW((void)parseSeedList("1..5000,5001..10000"));

  std::string singles;
  for (std::size_t i = 0; i < kMaxSeeds; ++i) singles += std::to_string(i) + ",";
  EXPECT_EQ(parseSeedList(singles).size(), kMaxSeeds);
  EXPECT_THROW((void)parseSeedList(singles + "7"), BadRequest);
}

}  // namespace
}  // namespace rtlock::service
