#include "designs/random.hpp"

#include <gtest/gtest.h>

#include <string>

#include "rtl/stats.hpp"
#include "sim/evaluator.hpp"
#include "support/strings.hpp"
#include "verilog/parser.hpp"
#include "verilog/writer.hpp"

namespace rtlock::designs {
namespace {

TEST(RandomModuleTest, GeneratesRequestedOperationCount) {
  support::Rng rng{1};
  RandomModuleParams params;
  params.operations = 25;
  const rtl::Module m = makeRandomModule(rng, params);
  // At least `operations` binaries (operand expressions may add more).
  EXPECT_GE(rtl::countOps(m).total(), 25);
}

TEST(RandomModuleTest, AlwaysHasPorts) {
  support::Rng rng{2};
  for (int i = 0; i < 20; ++i) {
    const rtl::Module m = makeRandomModule(rng);
    bool hasInput = false;
    bool hasOutput = false;
    for (const auto id : m.ports()) {
      if (m.signal(id).dir == rtl::PortDir::Input) hasInput = true;
      if (m.signal(id).dir == rtl::PortDir::Output) hasOutput = true;
    }
    EXPECT_TRUE(hasInput && hasOutput);
  }
}

TEST(RandomModuleTest, AlwaysSimulable) {
  // No combinational loops, no invalid widths, across many seeds.
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    support::Rng rng{seed};
    const rtl::Module m = makeRandomModule(rng);
    sim::Evaluator eval{m};
    support::Rng stim{seed + 100};
    for (const auto id : m.ports()) {
      if (m.signal(id).dir == rtl::PortDir::Input) {
        eval.setValue(id, sim::BitVector::random(m.signal(id).width, rng));
      }
    }
    eval.settle();
    for (const auto clock : eval.clocks()) eval.clockEdge(clock);
    SUCCEED();
  }
}

TEST(RandomModuleTest, CombinationalOnlyVariant) {
  support::Rng rng{3};
  RandomModuleParams params;
  params.sequential = false;
  const rtl::Module m = makeRandomModule(rng, params);
  EXPECT_TRUE(m.processes().empty());
}

TEST(RandomModuleTest, DifferentSeedsDifferentModules) {
  support::Rng rngA{4};
  support::Rng rngB{5};
  EXPECT_FALSE(structurallyEqual(makeRandomModule(rngA), makeRandomModule(rngB)));
}

TEST(RandomModuleTest, SameSeedSameModule) {
  support::Rng rngA{6};
  support::Rng rngB{6};
  EXPECT_TRUE(structurallyEqual(makeRandomModule(rngA), makeRandomModule(rngB)));
}

// Sliced modules used to wrap concatenations wider than 64 bits in a slice,
// which Verilog cannot express and writeModule rejects (e.g. Rng{7}
// substream 91 at 200 ops).  Every module must now write, parse back and
// compare equal.
TEST(RandomModuleTest, EveryModuleRoundTripsThroughVerilog) {
  const support::Rng root{7};
  for (const int operations : {200, 1000}) {
    for (std::uint64_t i = 0; i < 300; ++i) {
      support::Rng rng = root.substream(i);
      RandomModuleParams params;
      params.operations = operations;
      const rtl::Module m = makeRandomModule(rng, params);
      std::string text;
      ASSERT_NO_THROW(text = verilog::writeModule(m)) << operations << " ops, substream " << i;
      const rtl::Module reparsed = verilog::parseModule(text);
      ASSERT_TRUE(structurallyEqual(m, reparsed)) << operations << " ops, substream " << i;
    }
  }
}

// The generator's draws and output are pinned: fuzz corpora, the pool relock
// oracle and the served-lock benchmark's cold netlists (1000 ops, slices off)
// all replay from seeds.
TEST(RandomModuleTest, OutputIsPinned) {
  const support::Rng root{7};
  for (const bool slices : {false, true}) {
    std::string texts;
    for (std::uint64_t i = 0; i < 20; ++i) {
      support::Rng rng = root.substream(i);
      RandomModuleParams params;
      params.operations = 1000;
      params.useSlices = slices;
      texts += verilog::writeModule(makeRandomModule(rng, params));
      texts += std::to_string(rng());  // the draws after the module
    }
    EXPECT_EQ(support::fnv1a64Hex(texts), slices ? "2b6cb9808b93cdf9" : "5069c8be54c2beba")
        << "slices " << slices;
  }
}

}  // namespace
}  // namespace rtlock::designs
