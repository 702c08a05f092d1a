// Request vocabulary parsers shared by the CLI flags and the HTTP bodies.
#include "service/types.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "service/schema.hpp"

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

TEST(ParseBudgetTest, RejectsNonFiniteFractions) {
  // NaN passed the (0%, 100%] check and reached int casts of fraction * ops.
  for (const char* text : {"nan%", "-nan%", "NAN%", "inf%", "nan", "1e999%"}) {
    EXPECT_THROW((void)parseBudget(text), BadRequest) << text;
  }
  EXPECT_DOUBLE_EQ(parseBudget("50%").fraction, 0.5);

  // Through the CLI flags and the JSON fields of every budget row.
  for (const auto& [command, row] : {std::pair{"lock", "budget"}, std::pair{"eval", "budget"},
                                     std::pair{"attack", "relock-budget"}}) {
    const Schema& schema = schemaFor(command);
    const FieldValues flags = decodeFlags(schema, {"in.v", "--" + std::string{row} + "=nan%"});
    support::JsonValue body;
    body.set(schema.find(row)->jsonSpelling(), "nan%");
    const FieldValues json = decodeJson(schema, body);
    if (std::string{command} == "lock") {
      EXPECT_THROW((void)lockRequestFrom(flags), BadRequest);
      EXPECT_THROW((void)lockRequestFrom(json), BadRequest);
    } else if (std::string{command} == "eval") {
      EXPECT_THROW((void)evalRequestFrom(flags), BadRequest);
      EXPECT_THROW((void)evalRequestFrom(json), BadRequest);
    } else {
      EXPECT_THROW((void)attackRequestFrom(flags), BadRequest);
      EXPECT_THROW((void)attackRequestFrom(json), BadRequest);
    }
  }
}

}  // namespace
}  // namespace rtlock::service
