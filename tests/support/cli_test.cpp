#include "support/cli.hpp"

#include <gtest/gtest.h>

#include "support/diagnostics.hpp"

namespace rtlock::support {
namespace {

CliArgs parse(std::vector<const char*> argv, std::vector<std::string> known) {
  argv.insert(argv.begin(), "prog");
  return CliArgs{static_cast<int>(argv.size()), argv.data(), std::move(known)};
}

TEST(CliTest, EqualsSyntax) {
  const auto args = parse({"--seed=42"}, {"seed"});
  EXPECT_EQ(args.getInt("seed", 0), 42);
}

TEST(CliTest, SpaceSyntax) {
  const auto args = parse({"--seed", "7"}, {"seed"});
  EXPECT_EQ(args.getInt("seed", 0), 7);
}

TEST(CliTest, BareFlagIsTrue) {
  const auto args = parse({"--csv"}, {"csv"});
  EXPECT_TRUE(args.getBool("csv", false));
  EXPECT_TRUE(args.has("csv"));
}

TEST(CliTest, FallbacksWhenAbsent) {
  const auto args = parse({}, {"seed", "csv"});
  EXPECT_EQ(args.getInt("seed", 99), 99);
  EXPECT_FALSE(args.getBool("csv", false));
  EXPECT_EQ(args.get("seed", "d"), "d");
  EXPECT_FALSE(args.has("seed"));
}

TEST(CliTest, UnknownFlagThrows) {
  EXPECT_THROW(parse({"--bogus"}, {"seed"}), Error);
}

TEST(CliTest, BadIntegerThrows) {
  const auto args = parse({"--seed=abc"}, {"seed"});
  EXPECT_THROW((void)args.getInt("seed", 0), Error);
}

TEST(CliTest, ParseU64AcceptsPlainDecimal) {
  EXPECT_EQ(parseU64("0"), 0u);
  EXPECT_EQ(parseU64("42"), 42u);
  EXPECT_EQ(parseU64("18446744073709551615"), 18446744073709551615ULL);  // UINT64_MAX
}

TEST(CliTest, ParseU64RejectsEverythingElse) {
  // Trailing junk: the stoull behaviour this replaces parsed "3x" as 3.
  EXPECT_EQ(parseU64("3x"), std::nullopt);
  // Signs: stoull wrapped "-1" to 2^64-1 instead of failing.
  EXPECT_EQ(parseU64("-1"), std::nullopt);
  EXPECT_EQ(parseU64("+1"), std::nullopt);
  EXPECT_EQ(parseU64(""), std::nullopt);
  EXPECT_EQ(parseU64(" 1"), std::nullopt);
  EXPECT_EQ(parseU64("1 "), std::nullopt);
  EXPECT_EQ(parseU64("0x10"), std::nullopt);
  EXPECT_EQ(parseU64("1e3"), std::nullopt);
  EXPECT_EQ(parseU64("18446744073709551616"), std::nullopt);  // UINT64_MAX + 1
}

TEST(CliTest, GetU64StrictParsing) {
  EXPECT_EQ(parse({"--seed=7"}, {"seed"}).getU64("seed", 0), 7u);
  EXPECT_EQ(parse({}, {"seed"}).getU64("seed", 99), 99u);
  EXPECT_THROW((void)parse({"--seed=3x"}, {"seed"}).getU64("seed", 0), Error);
  EXPECT_THROW((void)parse({"--seed=-1"}, {"seed"}).getU64("seed", 0), Error);
}

TEST(CliTest, DoubleParsing) {
  const auto args = parse({"--budget=0.75"}, {"budget"});
  EXPECT_DOUBLE_EQ(args.getDouble("budget", 0.0), 0.75);
}

TEST(CliTest, BooleanSpellings) {
  EXPECT_TRUE(parse({"--x=yes"}, {"x"}).getBool("x", false));
  EXPECT_TRUE(parse({"--x=1"}, {"x"}).getBool("x", false));
  EXPECT_FALSE(parse({"--x=off"}, {"x"}).getBool("x", true));
  EXPECT_THROW((void)parse({"--x=maybe"}, {"x"}).getBool("x", true), Error);
}

TEST(CliTest, RequestedThreadsBoundsTheFlag) {
  EXPECT_EQ(requestedThreads(parse({"--threads=0"}, {"threads"})), 0);
  EXPECT_EQ(requestedThreads(parse({"--threads=3"}, {"threads"})), 3);
  EXPECT_EQ(requestedThreads(parse({"--threads=4096"}, {"threads"})), kMaxThreads);
  // -1 used to run on hardware threads; 5000000000 truncated through int.
  EXPECT_THROW((void)requestedThreads(parse({"--threads=-1"}, {"threads"})), Error);
  EXPECT_THROW((void)requestedThreads(parse({"--threads=4097"}, {"threads"})), Error);
  EXPECT_THROW((void)requestedThreads(parse({"--threads=5000000000"}, {"threads"})), Error);
  EXPECT_THROW((void)requestedThreads(parse({"--threads=2x"}, {"threads"})), Error);
}

TEST(CliTest, PositionalArguments) {
  const auto args = parse({"file1.v", "--seed=1", "file2.v"}, {"seed"});
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "file1.v");
  EXPECT_EQ(args.positional()[1], "file2.v");
}

}  // namespace
}  // namespace rtlock::support
