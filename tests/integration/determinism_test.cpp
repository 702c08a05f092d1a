// Thread-count invariance of the experiment engine (the property the whole
// reproduction leans on: sharded runs must be *bit-identical* to the serial
// reference path, so a reviewer on a 64-core box and CI on 2 cores argue
// about the same numbers).
//
// Covered here:
//  * the Fig. 6 grid (bench::runFig6 over FIR+SASC) at threads 1 / 4 /
//    hardware — byte-identical EvaluationResult cells (every double compared
//    by bit pattern, not epsilon).  The grid is the only level that fans
//    out, so this is also the run that drives evaluateBenchmark concurrently;
//  * evaluateBenchmark advancing the caller's Rng by exactly one fork — the
//    contract the `ablation features` grid's per-cell streams rely on;
//  * the fig4 scenario grid sharded across pools of different sizes —
//    identical observation streams;
//  * two identically-seeded serial runs — the regression guard for the
//    Rng substream convention (if the derivation ever changes, this and the
//    committed BENCH_baseline.json change together, loudly).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "attack/pipeline.hpp"
#include "designs/networks.hpp"
#include "figures.hpp"

namespace rtlock::attack {
namespace {

/// Bitwise double equality: NaN-safe, and strict about -0.0 vs 0.0 — the
/// point is byte-identity of the result, not numeric closeness.
::testing::AssertionResult bitEqual(double a, double b) {
  if (std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ ("
         << std::bit_cast<std::uint64_t>(a) << " vs " << std::bit_cast<std::uint64_t>(b) << ")";
}

void expectByteIdentical(const EvaluationResult& a, const EvaluationResult& b) {
  EXPECT_EQ(a.benchmark, b.benchmark);
  EXPECT_EQ(a.algorithm, b.algorithm);
  EXPECT_EQ(a.samples, b.samples);
  EXPECT_TRUE(bitEqual(a.meanKpa, b.meanKpa));
  EXPECT_TRUE(bitEqual(a.minKpa, b.minKpa));
  EXPECT_TRUE(bitEqual(a.maxKpa, b.maxKpa));
  EXPECT_TRUE(bitEqual(a.meanKeyBits, b.meanKeyBits));
  EXPECT_TRUE(bitEqual(a.meanBitsUsed, b.meanBitsUsed));
  EXPECT_TRUE(bitEqual(a.meanGlobalMetric, b.meanGlobalMetric));
  EXPECT_TRUE(bitEqual(a.meanRestrictedMetric, b.meanRestrictedMetric));
  EXPECT_TRUE(bitEqual(a.meanTrainingRows, b.meanTrainingRows));
}

EvaluationConfig smallConfig() {
  EvaluationConfig config;
  config.testLocks = 4;
  config.snapshot.relockRounds = 10;
  config.snapshot.automl.folds = 2;
  return config;
}

EvaluationResult runEvaluation(lock::Algorithm algorithm, std::uint64_t seed) {
  support::Rng rng{seed};
  const auto original = designs::makePlusNetwork(40);
  return evaluateBenchmark(original, "plus40", algorithm, lock::PairTable::fixed(),
                           smallConfig(), rng);
}

bench::Fig6Grid runFig6Grid(int threads) {
  return bench::runFig6({"FIR", "SASC"}, bench::fig6Config(/*samples=*/2, /*relocks=*/10),
                        support::Rng{11}, threads);
}

TEST(DeterminismTest, Fig6GridIsThreadCountInvariant) {
  const bench::Fig6Grid serial = runFig6Grid(1);
  const bench::Fig6Grid four = runFig6Grid(4);
  const bench::Fig6Grid hardware = runFig6Grid(0);
  ASSERT_EQ(serial.cells.size(), bench::kFig6Algorithms.size() * 2);
  ASSERT_EQ(four.cells.size(), serial.cells.size());
  ASSERT_EQ(hardware.cells.size(), serial.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    SCOPED_TRACE(i);
    expectByteIdentical(serial.cells[i], four.cells[i]);
    expectByteIdentical(serial.cells[i], hardware.cells[i]);
  }
}

TEST(DeterminismTest, IdenticallySeededSerialRunsMatch) {
  // Substream-convention regression guard: two runs from the same seed must
  // agree with themselves.
  const EvaluationResult first = runEvaluation(lock::Algorithm::Hra, 23);
  const EvaluationResult second = runEvaluation(lock::Algorithm::Hra, 23);
  expectByteIdentical(first, second);
}

TEST(DeterminismTest, EvaluateBenchmarkAdvancesCallerRngByExactlyOneDraw) {
  // The documented contract behind the `ablation features` grid: the caller's
  // stream moves by one fork per call, never by "however many draws the
  // samples consumed", so cell k can start from the stream as it stood
  // before the k-th fork.
  support::Rng used{31};
  support::Rng witness{31};
  const auto original = designs::makePlusNetwork(30);
  (void)evaluateBenchmark(original, "plus30", lock::Algorithm::AssureSerial,
                          lock::PairTable::fixed(), smallConfig(), used);
  (void)witness();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(used(), witness());
}

// --- fig4 scenario grid ----------------------------------------------------

bench::Fig4Observations runScenario(bench::Fig4Scenario scenario, std::uint64_t seed) {
  support::Rng rng{seed};
  return bench::observeFig4(scenario, /*networkSize=*/48, /*testBits=*/24, /*rounds=*/40, rng);
}

/// The bench's own scenario grid (one task per scenario, scenario i on
/// rng{7 + i}).
std::vector<bench::Fig4Observations> runFig4Grid(int threads) {
  return bench::observeFig4Scenarios(7, /*networkSize=*/48, /*testBits=*/24, /*rounds=*/40,
                                     threads);
}

TEST(DeterminismTest, Fig4ObservationStreamsAreThreadCountInvariant) {
  const auto serial = runFig4Grid(1);
  const auto four = runFig4Grid(4);
  const auto hardware = runFig4Grid(0);
  ASSERT_EQ(serial.size(), 3u);
  // Observation maps hold integer counts keyed by locality codes, so plain
  // equality *is* byte-identity here.
  EXPECT_EQ(serial, four);
  EXPECT_EQ(serial, hardware);
  // And the scenarios genuinely observed something.
  for (const auto& observations : serial) EXPECT_FALSE(observations.empty());
}

TEST(DeterminismTest, Fig4IdenticallySeededRunsMatch) {
  EXPECT_EQ(runScenario(bench::Fig4Scenario::RandomRandom, 99),
            runScenario(bench::Fig4Scenario::RandomRandom, 99));
}

}  // namespace
}  // namespace rtlock::attack
