// Property tests: writeModule(parse(text)) and parse(writeModule(m)) are
// structural fixed points, for hand-written sources, builder-made modules,
// every benchmark generator, and locked designs.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>

#include "core/algorithms.hpp"
#include "designs/registry.hpp"
#include "rtl/builder.hpp"
#include "verilog/parser.hpp"
#include "verilog/writer.hpp"

namespace rtlock::verilog {
namespace {

/// parse -> write -> parse -> compare (write output is the canonical form).
void expectStableRoundTrip(const rtl::Module& module) {
  const std::string once = writeModule(module);
  const rtl::Module reparsed = parseModule(once);
  EXPECT_TRUE(structurallyEqual(module, reparsed)) << "non-canonical round trip:\n" << once;
  const std::string twice = writeModule(reparsed);
  EXPECT_EQ(once, twice);
}

TEST(RoundTripTest, CombinationalModule) {
  rtl::ModuleBuilder b{"comb"};
  const auto a = b.input("a", 8);
  const auto c = b.input("b", 8);
  const auto w = b.wire("w", 8);
  const auto y = b.output("y", 8);
  b.assign(w, b.add(b.mul(b.ref(a), b.ref(c)), b.lit(7, 8)));
  b.assign(y, b.mux(b.bin(rtl::OpKind::Lt, b.ref(a), b.ref(c)), b.ref(w), b.notE(b.ref(w))));
  expectStableRoundTrip(b.take());
}

TEST(RoundTripTest, SequentialModule) {
  rtl::ModuleBuilder b{"seq"};
  const auto clk = b.input("clk", 1);
  const auto d = b.input("d", 16);
  const auto q = b.reg("q", 16);
  const auto y = b.output("y", 16);
  b.regAssign(clk, q, b.add(b.ref(q), b.ref(d)));
  b.assign(y, b.shr(b.ref(q), b.lit(2, 3)));
  expectStableRoundTrip(b.take());
}

TEST(RoundTripTest, AllOperatorsSurvive) {
  rtl::ModuleBuilder b{"allops"};
  const auto a = b.input("a", 16);
  const auto c = b.input("b", 16);
  int wireId = 0;
  for (int k = 0; k < rtl::kOpKindCount; ++k) {
    const auto w = b.wire("w" + std::to_string(wireId++), 16);
    b.assign(w, b.bin(static_cast<rtl::OpKind>(k), b.ref(a), b.ref(c)));
  }
  const auto y = b.output("y", 16);
  b.assign(y, b.ref(a));
  expectStableRoundTrip(b.take());
}

TEST(RoundTripTest, UnaryOperatorsSurvive) {
  rtl::ModuleBuilder b{"unary"};
  const auto a = b.input("a", 8);
  const auto w0 = b.wire("w0", 8);
  const auto w1 = b.wire("w1", 8);
  const auto w2 = b.wire("w2", 1);
  const auto w3 = b.wire("w3", 1);
  const auto w4 = b.wire("w4", 1);
  const auto w5 = b.wire("w5", 1);
  b.assign(w0, rtl::makeUnary(rtl::UnaryOp::Neg, b.ref(a)));
  b.assign(w1, rtl::makeUnary(rtl::UnaryOp::BitNot, b.ref(a)));
  b.assign(w2, rtl::makeUnary(rtl::UnaryOp::LogNot, b.ref(a)));
  b.assign(w3, rtl::makeUnary(rtl::UnaryOp::RedAnd, b.ref(a)));
  b.assign(w4, rtl::makeUnary(rtl::UnaryOp::RedOr, b.ref(a)));
  b.assign(w5, rtl::makeUnary(rtl::UnaryOp::RedXor, b.ref(a)));
  const auto y = b.output("y", 8);
  b.assign(y, b.ref(w0));
  expectStableRoundTrip(b.take());
}

TEST(RoundTripTest, CaseAndIfStatements) {
  const auto m = parseModule(R"(
    module fsm (input clk, input [1:0] sel, input [3:0] a, output reg [3:0] y);
      reg [3:0] nxt;
      always @(*) begin
        nxt = 4'h0;
        case (sel)
          2'h0: nxt = a;
          2'h1, 2'h2: if (a > 4'h7) nxt = ~a; else nxt = a;
          default: nxt = 4'hf;
        endcase
      end
      always @(posedge clk) begin
        y <= nxt;
      end
    endmodule
  )");
  expectStableRoundTrip(m);
}

class BenchmarkRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(BenchmarkRoundTrip, GeneratorOutputSurvives) {
  expectStableRoundTrip(designs::makeBenchmark(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BenchmarkRoundTrip,
                         ::testing::ValuesIn(designs::benchmarkNames()),
                         [](const auto& info) { return info.param; });

class LockedRoundTrip : public ::testing::TestWithParam<lock::Algorithm> {};

TEST_P(LockedRoundTrip, LockedDesignSurvives) {
  rtl::Module m = designs::makeBenchmark("FIR");
  support::Rng rng{99};
  lock::LockEngine engine{m, lock::PairTable::fixed()};
  const int budget = engine.initialLockableOps() / 2;
  (void)lock::lockWithAlgorithm(engine, GetParam(), budget, rng);
  expectStableRoundTrip(m);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, LockedRoundTrip,
                         ::testing::Values(lock::Algorithm::AssureSerial,
                                           lock::Algorithm::AssureRandom,
                                           lock::Algorithm::Hra, lock::Algorithm::Greedy,
                                           lock::Algorithm::Era),
                         [](const auto& info) {
                           return std::string{lock::algorithmName(info.param)} == "ASSURE-random"
                                      ? std::string{"AssureRandom"}
                                      : std::string{lock::algorithmName(info.param)};
                         });

// Every registry design, locked at full budget (every lockable op), still
// fits the parser's nesting cap and survives write -> parse.
class FullBudgetRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::string, lock::Algorithm>> {};

TEST_P(FullBudgetRoundTrip, LockedRegistryDesignSurvives) {
  const auto& [name, algorithm] = GetParam();
  rtl::Module m = designs::makeBenchmark(name);
  support::Rng rng{7};
  lock::LockEngine engine{m, lock::PairTable::fixed()};
  (void)lock::lockWithAlgorithm(engine, algorithm, engine.initialLockableOps(), rng);
  expectStableRoundTrip(m);
}

INSTANTIATE_TEST_SUITE_P(
    RegistryByAlgorithm, FullBudgetRoundTrip,
    ::testing::Combine(::testing::ValuesIn(designs::benchmarkNames()),
                       ::testing::Values(lock::Algorithm::AssureSerial,
                                         lock::Algorithm::AssureRandom, lock::Algorithm::Hra,
                                         lock::Algorithm::Greedy, lock::Algorithm::Era)),
    [](const auto& info) {
      std::string algorithm{lock::algorithmName(std::get<1>(info.param))};
      algorithm.erase(std::remove(algorithm.begin(), algorithm.end(), '-'), algorithm.end());
      return std::get<0>(info.param) + "_" + algorithm;
    });

}  // namespace
}  // namespace rtlock::verilog
