// Differential fuzz suite for the bit-sliced backend: every lane of a
// SlicedSim batch must be bit-identical with the reference interpreter on
// registry designs, locked registry designs with per-lane hypothesis keys,
// random fuzz modules, and targeted edges — partial lane counts 1/7/63,
// bitwise and fallback ops at edge widths, mixed-width concat/slice shapes,
// predicated (if-converted) case/slice stores, and a shared Program.
#include "sim/sliced_sim.hpp"

#include <gtest/gtest.h>

#include "core/assure.hpp"
#include "designs/random.hpp"
#include "designs/registry.hpp"
#include "rtl/builder.hpp"
#include "sim/compiler.hpp"
#include "sim/evaluator.hpp"

namespace rtlock::sim {
namespace {

TEST(Transpose64Test, PlainTransposeOrientation) {
  // out[i] bit j == in[j] bit i, pinned on single-bit matrices.
  for (const auto& [row, bit] : {std::pair{0, 0}, {0, 63}, {63, 0}, {17, 42}, {1, 2}}) {
    std::uint64_t m[64] = {};
    m[row] = std::uint64_t{1} << bit;
    detail::transpose64(m);
    for (int i = 0; i < 64; ++i) {
      EXPECT_EQ(m[i], i == bit ? std::uint64_t{1} << row : 0) << "row " << row << " bit " << bit;
    }
  }
}

TEST(Transpose64Test, RoundTripsRandomMatrices) {
  support::Rng rng{3};
  std::uint64_t m[64];
  std::uint64_t copy[64];
  for (int i = 0; i < 64; ++i) copy[i] = m[i] = rng();
  detail::transpose64(m);
  detail::transpose64(m);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(m[i], copy[i]);
}

/// Drives `lanes` interpreter instances and one SlicedSim with identical
/// per-lane random stimuli (and per-lane random keys when requested) and
/// compares EVERY signal in every lane after every settle and clock edge.
void expectLanesAgree(const rtl::Module& module, int lanes, int cycles, std::uint64_t seed,
                      bool randomKeys = false) {
  SlicedSim sliced{module};
  std::vector<Evaluator> refs;
  refs.reserve(static_cast<std::size_t>(lanes));
  for (int l = 0; l < lanes; ++l) refs.emplace_back(module);
  support::Rng rng{seed};

  std::vector<rtl::SignalId> inputs;
  for (const rtl::SignalId id : module.ports()) {
    if (module.signal(id).dir == rtl::PortDir::Input) inputs.push_back(id);
  }
  const auto& clocks = refs.front().clocks();
  EXPECT_EQ(clocks, sliced.clocks());

  const auto compareAll = [&](int cycle, const char* phase) {
    for (rtl::SignalId id = 0; id < module.signalCount(); ++id) {
      for (int l = 0; l < lanes; ++l) {
        ASSERT_EQ(refs[static_cast<std::size_t>(l)].value(id), sliced.laneValue(id, l))
            << module.name() << " signal '" << module.signal(id).name << "' lane " << l
            << " cycle " << cycle << " after " << phase;
      }
    }
  };

  sliced.reset();
  for (auto& ref : refs) ref.reset();
  if (randomKeys && module.keyWidth() > 0) {
    std::vector<BitVector> keys;
    for (int l = 0; l < lanes; ++l) keys.push_back(BitVector::random(module.keyWidth(), rng));
    sliced.setKeys(keys);
    for (int l = 0; l < lanes; ++l) {
      refs[static_cast<std::size_t>(l)].setKey(keys[static_cast<std::size_t>(l)]);
    }
  }
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const rtl::SignalId input : inputs) {
      std::vector<BitVector> stimuli;
      for (int l = 0; l < lanes; ++l) {
        stimuli.push_back(BitVector::random(module.signal(input).width, rng));
      }
      sliced.setLaneValues(input, stimuli);
      for (int l = 0; l < lanes; ++l) {
        refs[static_cast<std::size_t>(l)].setValue(input, stimuli[static_cast<std::size_t>(l)]);
      }
    }
    sliced.settle();
    for (auto& ref : refs) ref.settle();
    compareAll(cycle, "settle");
    for (const rtl::SignalId clock : clocks) {
      sliced.clockEdge(clock);
      for (auto& ref : refs) ref.clockEdge(clock);
      compareAll(cycle, "clock edge");
    }
  }
}

TEST(SlicedSimDifferentialTest, EveryRegistryDesignMatchesInterpreter) {
  for (const auto& name : designs::benchmarkNames()) {
    SCOPED_TRACE(name);
    const rtl::Module module = designs::makeBenchmark(name);
    expectLanesAgree(module, /*lanes=*/8, /*cycles=*/4, /*seed=*/1);
  }
}

TEST(SlicedSimDifferentialTest, LockedRegistryDesignsMatchUnderPerLaneKeys) {
  support::Rng lockRng{7};
  for (const auto& name : designs::benchmarkNames()) {
    SCOPED_TRACE(name);
    rtl::Module module = designs::makeBenchmark(name);
    lock::LockEngine engine{module, lock::PairTable::fixed()};
    const int budget = std::max(1, engine.initialLockableOps() / 2);
    lock::assureRandomLock(engine, budget, lockRng);
    ASSERT_GT(module.keyWidth(), 0);
    // 64 lanes = 64 distinct hypothesis keys through one tape pass.
    expectLanesAgree(module, /*lanes=*/64, /*cycles=*/3, /*seed=*/2, /*randomKeys=*/true);
  }
}

TEST(SlicedSimDifferentialTest, RandomFuzzModulesMatchInterpreter) {
  support::Rng makeRng{31};
  for (int round = 0; round < 25; ++round) {
    SCOPED_TRACE(round);
    designs::RandomModuleParams params;
    params.maxWidth = round % 2 == 0 ? 16 : 64;  // wide rounds stress 64-bit edges
    const rtl::Module module = designs::makeRandomModule(makeRng, params);
    expectLanesAgree(module, /*lanes=*/round % 2 == 0 ? 64 : 7, /*cycles=*/3,
                     /*seed=*/100 + static_cast<std::uint64_t>(round));
  }
}

TEST(SlicedSimDifferentialTest, PartialLaneCountsMatchInterpreter) {
  // setLaneValues zeroes the lanes past the driven ones; 1 and 63 lanes pin
  // both ends of a partially filled arena.
  const rtl::Module fir = designs::makeBenchmark("FIR");
  for (const int lanes : {1, 63}) {
    SCOPED_TRACE(lanes);
    expectLanesAgree(fir, lanes, /*cycles=*/3, /*seed=*/static_cast<std::uint64_t>(lanes));
  }
}

// ---- targeted edges ------------------------------------------------------

/// y = ((a + b) ^ (a << 3)) - (a & b) plus a comparison, at one width: the
/// bitwise kernels (carry/borrow ripple, constant shift, compare) at edges.
rtl::Module makeArithMix(int width) {
  rtl::ModuleBuilder b{"arith_" + std::to_string(width)};
  const auto a = b.input("a", width);
  const auto c = b.input("b", width);
  const auto y = b.output("y", width);
  const auto lt = b.output("lt", 1);
  b.assign(y, b.sub(b.xorE(b.add(b.ref(a), b.ref(c)),
                           b.bin(rtl::OpKind::Shl, b.ref(a), b.lit(3, 8))),
                    b.andE(b.ref(a), b.ref(c))));
  b.assign(lt, b.bin(rtl::OpKind::Lt, b.ref(a), b.ref(c)));
  return b.take();
}

TEST(SlicedSimTest, BitwiseOpsMatchAtEdgeWidths) {
  for (const int width : {1, 2, 31, 32, 63, 64}) {
    SCOPED_TRACE(width);
    expectLanesAgree(makeArithMix(width), /*lanes=*/64, /*cycles=*/1,
                     /*seed=*/static_cast<std::uint64_t>(width));
  }
}

template <typename... Parts>
std::vector<rtl::ExprPtr> parts(Parts&&... items) {
  std::vector<rtl::ExprPtr> out;
  (out.push_back(std::forward<Parts>(items)), ...);
  return out;
}

/// All the lane-fallback ops at once: mul, div/mod (with zero divisors in
/// some lanes), pow, and variable-amount shifts.
rtl::Module makeFallbackMix(int width) {
  rtl::ModuleBuilder b{"fallback_" + std::to_string(width)};
  const auto a = b.input("a", width);
  const auto c = b.input("b", width);
  const auto amt = b.input("amt", 7);  // amounts beyond the width zero the result
  const auto y = b.output("y", width);
  const auto z = b.output("z", width);
  b.assign(y, b.xorE(b.bin(rtl::OpKind::Mul, b.ref(a), b.ref(c)),
                     b.bin(rtl::OpKind::Div, b.ref(a), b.ref(c))));
  b.assign(z, b.xorE(b.bin(rtl::OpKind::Shl, b.ref(a), b.ref(amt)),
                     b.xorE(b.bin(rtl::OpKind::Shr, b.ref(c), b.ref(amt)),
                            b.bin(rtl::OpKind::Mod, b.ref(c), b.ref(a)))));
  return b.take();
}

TEST(SlicedSimTest, LaneFallbackOpsMatchAtEdgeWidths) {
  for (const int width : {1, 2, 31, 32, 63, 64}) {
    SCOPED_TRACE(width);
    expectLanesAgree(makeFallbackMix(width), /*lanes=*/64, /*cycles=*/4,
                     /*seed=*/static_cast<std::uint64_t>(width));
  }
}

/// Mixed-width concat/slice edges: 65- and 128-bit concat-built values,
/// sliced back down, compared wide, plus a wide shift by a narrow signal.
rtl::Module makeWideMix() {
  rtl::ModuleBuilder b{"wide_mix"};
  const auto a = b.input("a", 64);
  const auto c = b.input("b", 64);
  const auto amt = b.input("amt", 4);
  const auto low = b.output("low", 33);
  const auto high = b.output("high", 64);
  const auto red = b.output("red", 1);
  const auto shifted = b.output("shifted", 40);
  const auto wide65 = b.wire("wide65", 65);
  b.assign(wide65, b.concat(parts(b.slice(b.ref(a), 0, 0), b.ref(c))));
  const auto wide128 = b.wire("wide128", 128);
  b.assign(wide128, b.concat(parts(b.ref(a), b.ref(c))));
  b.assign(low, b.slice(b.ref(wide128), 32, 0));
  b.assign(high, b.slice(b.ref(wide128), 127, 64));
  b.assign(red, b.bin(rtl::OpKind::Ne, b.ref(wide65), b.ref(wide128)));
  // Wide value, variable amount: exercises the per-lane BitVector fallback.
  b.assign(shifted, b.slice(b.bin(rtl::OpKind::Shr, b.ref(wide128), b.ref(amt)), 39, 0));
  return b.take();
}

TEST(SlicedSimTest, MixedWidthConcatSliceEdges) {
  expectLanesAgree(makeWideMix(), /*lanes=*/64, /*cycles=*/6, /*seed=*/9);
}

/// Sequential case with slice writes: predicated (if-converted) dispatch and
/// shadow-plane double buffering, including partially written registers.
rtl::Module makeCaseCounter() {
  rtl::ModuleBuilder b{"case_counter"};
  const auto clk = b.input("clk", 1);
  const auto mode = b.input("mode", 2);
  const auto count = b.outputReg("count", 8);

  std::vector<rtl::CaseItem> items;
  {
    rtl::CaseItem item;
    item.labels = {0};
    item.body = rtl::makeAssign({count, std::nullopt}, b.add(b.ref(count), b.lit(1, 8)),
                                /*nonBlocking=*/true);
    items.push_back(std::move(item));
  }
  {
    rtl::CaseItem item;
    item.labels = {1, 2};
    item.body = rtl::makeAssign({count, std::pair<int, int>{3, 0}},
                                b.add(b.slice(b.ref(count), 3, 0), b.lit(1, 4)),
                                /*nonBlocking=*/true);
    items.push_back(std::move(item));
  }
  auto defaultBody = rtl::makeAssign({count, std::nullopt}, b.lit(0x80, 8),
                                     /*nonBlocking=*/true);
  b.seqProcess(clk, rtl::makeCase(b.ref(mode), std::move(items), std::move(defaultBody)));
  return b.take();
}

TEST(SlicedSimTest, PredicatedCaseAndShadowedSliceWrites) {
  // Lanes diverge across the case arms every cycle; each lane must follow
  // its own arm exactly as the interpreter does.
  expectLanesAgree(makeCaseCounter(), /*lanes=*/64, /*cycles=*/8, /*seed=*/11);
}

// ---- key/state lifecycle -------------------------------------------------

TEST(SlicedSimTest, ResetClearsKeyPlanesBetweenBatches) {
  // Regression pin: a keyless batch run after reset() following a keyed batch
  // must behave exactly like a keyless batch on a fresh instance (zero key),
  // not reuse the previous batch's key lanes.
  support::Rng lockRng{17};
  rtl::Module module = designs::makeBenchmark("FIR");
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  lock::assureRandomLock(engine, std::max(1, engine.initialLockableOps() / 2), lockRng);

  SlicedSim sliced{module};
  support::Rng rng{23};
  std::vector<rtl::SignalId> inputs;
  std::vector<rtl::SignalId> outputs;
  for (const rtl::SignalId id : module.ports()) {
    (module.signal(id).dir == rtl::PortDir::Input ? inputs : outputs).push_back(id);
  }
  for (const rtl::SignalId clock : sliced.clocks()) std::erase(inputs, clock);
  constexpr int kCycles = 16;  // past the FIR pipeline depth, so keys reach the outputs
  constexpr int kVectors = 8;
  std::vector<std::vector<BitVector>> stimuli;  // [cycle * inputs + i] -> lanes
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    for (const rtl::SignalId input : inputs) {
      auto& lanes = stimuli.emplace_back();
      for (int v = 0; v < kVectors; ++v) {
        lanes.push_back(BitVector::random(module.signal(input).width, rng));
      }
    }
  }
  std::vector<BitVector> keys;
  for (int v = 0; v < kVectors; ++v) keys.push_back(BitVector::random(module.keyWidth(), rng));

  // Outputs of every lane after each settle and clock edge.
  const auto runBatch = [&](SlicedSim& sim) {
    std::vector<BitVector> trace;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        sim.setLaneValues(inputs[i], stimuli[static_cast<std::size_t>(cycle) * inputs.size() + i]);
      }
      sim.settle();
      for (const rtl::SignalId clock : sim.clocks()) sim.clockEdge(clock);
      for (const rtl::SignalId output : outputs) {
        for (int lane = 0; lane < kVectors; ++lane) trace.push_back(sim.laneValue(output, lane));
      }
    }
    return trace;
  };

  sliced.setKeys(keys);
  const auto keyed = runBatch(sliced);
  sliced.reset();
  const auto keyless = runBatch(sliced);

  SlicedSim fresh{module};
  const auto expected = runBatch(fresh);
  ASSERT_EQ(keyless, expected);
  EXPECT_NE(keyed, expected);  // the keyed batch really ran under other keys
}

TEST(SlicedSimTest, MaskedSetKeysMatchesPerLaneExpansion) {
  // The mask overload is a pure packing optimisation: driving key i into the
  // lanes of laneMasks[i] must land bit-identical planes to listing the same
  // key once per lane, including zero keys for lanes no mask covers.
  support::Rng lockRng{29};
  rtl::Module module = designs::makeBenchmark("FIR");
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  lock::assureRandomLock(engine, std::max(1, engine.initialLockableOps() / 2), lockRng);

  support::Rng rng{31};
  std::vector<rtl::SignalId> inputs;
  std::vector<rtl::SignalId> outputs;
  for (const rtl::SignalId id : module.ports()) {
    (module.signal(id).dir == rtl::PortDir::Input ? inputs : outputs).push_back(id);
  }
  std::vector<BitVector> keys;
  for (int k = 0; k < 3; ++k) keys.push_back(BitVector::random(module.keyWidth(), rng));
  // Lanes 0-19 -> key 0, 20-39 -> key 1, 40-55 -> key 2, 56-63 uncovered.
  const std::vector<std::uint64_t> masks{0xFFFFFULL, 0xFFFFFULL << 20, 0xFFFFULL << 40};
  std::vector<BitVector> perLane(56, keys[0]);
  for (int lane = 20; lane < 40; ++lane) perLane[static_cast<std::size_t>(lane)] = keys[1];
  for (int lane = 40; lane < 56; ++lane) perLane[static_cast<std::size_t>(lane)] = keys[2];

  SlicedSim masked{module};
  SlicedSim expanded{module};
  masked.setKeys(keys, masks);
  expanded.setKeys(perLane);
  for (const rtl::SignalId input : inputs) {
    const BitVector value = BitVector::random(module.signal(input).width, rng);
    masked.setValue(input, value);
    expanded.setValue(input, value);
  }
  masked.settle();
  expanded.settle();
  for (const rtl::SignalId output : outputs) {
    for (int lane = 0; lane < SlicedSim::kLanes; ++lane) {
      ASSERT_EQ(masked.laneValue(output, lane), expanded.laneValue(output, lane))
          << "output " << module.signal(output).name << " lane " << lane;
    }
  }
}

TEST(SlicedSimTest, SharedProgramBacksIndependentInstances) {
  const rtl::Module module = makeFallbackMix(32);
  auto program = std::make_shared<const Program>(Compiler::compileSliced(module));
  SlicedSim first{program};
  SlicedSim second{program};

  const auto a = *module.findSignal("a");
  const auto b = *module.findSignal("b");
  const auto amt = *module.findSignal("amt");
  const auto y = *module.findSignal("y");
  first.setValue(a, BitVector{5, 32});
  first.setValue(b, BitVector{7, 32});
  first.setValue(amt, BitVector{1, 7});
  second.setValue(a, BitVector{100, 32});
  second.setValue(b, BitVector{200, 32});
  second.setValue(amt, BitVector{2, 7});
  first.settle();
  second.settle();
  EXPECT_NE(first.laneValue(y, 0), second.laneValue(y, 0));

  Evaluator reference{module};
  reference.setValue(a, BitVector{5, 32});
  reference.setValue(b, BitVector{7, 32});
  reference.setValue(amt, BitVector{1, 7});
  reference.settle();
  EXPECT_EQ(reference.value(y), first.laneValue(y, 0));
  EXPECT_EQ(reference.value(y), first.laneValue(y, 63));  // broadcast reaches every lane
}

}  // namespace
}  // namespace rtlock::sim
