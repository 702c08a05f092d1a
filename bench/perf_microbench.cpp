// Performance microbenchmarks (google-benchmark): throughput of the pieces
// that dominate experiment wall-clock — locking, undo, locality extraction,
// Verilog parsing/writing (BM_ParseDesign, ns per operation), the JSON
// encode of a served lock (BM_LockResponseDump), simulation, corruption
// sweeps, static analysis, classifier training, the attack's tree-free
// relock rounds (BM_PoolRelockRound, ns per harvested row, beside
// BM_TreeRelockRound, the LockEngine + LocalityHarvester oracle loop on the
// same target), auto-ml's row
// cap and fold step (BM_SampleIndices, BM_PoolFoldAggregates beside
// BM_DatasetFoldAggregates), the fit of each auto-ml portfolio candidate
// (BM_CandidateFit), and the MLP's fit and tanh (BM_MlpFit, BM_Tanh/owned
// beside BM_Tanh/libm, ns per element).  End-to-end timings of the attack, the session cache
// and HTTP serving live in perfbench/.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "analysis/verifier.hpp"
#include "attack/harvest.hpp"
#include "attack/locality.hpp"
#include "attack/pool_relock.hpp"
#include "core/algorithms.hpp"
#include "designs/networks.hpp"
#include "designs/random.hpp"
#include "designs/registry.hpp"
#include "ml/automl.hpp"
#include "ml/tanh.hpp"
#include "service/api.hpp"
#include "service/session.hpp"
#include "sim/compiler.hpp"
#include "sim/evaluator.hpp"
#include "sim/harness.hpp"
#include "verilog/parser.hpp"
#include "verilog/writer.hpp"

namespace {

using namespace rtlock;

void BM_LockRandomOp(benchmark::State& state) {
  rtl::Module module = designs::makePlusNetwork(static_cast<int>(state.range(0)));
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  support::Rng rng{1};
  for (auto _ : state) {
    const auto checkpoint = engine.checkpoint();
    benchmark::DoNotOptimize(engine.lockRandomOp(rng));
    engine.undoTo(checkpoint);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LockRandomOp)->Arg(128)->Arg(1024)->Arg(2046);

void BM_RelockSession(benchmark::State& state) {
  // One attack training round: 75% relock + extraction + undo.
  rtl::Module module = designs::makePlusNetwork(static_cast<int>(state.range(0)));
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  support::Rng rng{2};
  const int budget = static_cast<int>(0.75 * engine.initialLockableOps());
  for (auto _ : state) {
    const auto checkpoint = engine.checkpoint();
    lock::assureRandomLock(engine, budget, rng);
    benchmark::DoNotOptimize(attack::extractLocalities(module, {}));
    engine.undoTo(checkpoint);
  }
  state.SetItemsProcessed(state.iterations() * budget);
}
BENCHMARK(BM_RelockSession)->Arg(128)->Arg(1024);

void BM_EraLock(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rtl::Module module = designs::makePlusNetwork(static_cast<int>(state.range(0)));
    lock::LockEngine engine{module, lock::PairTable::fixed()};
    support::Rng rng{3};
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        lock::eraLock(engine, engine.initialLockableOps(), rng).bitsUsed);
  }
}
BENCHMARK(BM_EraLock)->Arg(256)->Arg(1024)->Iterations(20);

void BM_HraLock(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    rtl::Module module = designs::makeBenchmark("SHA256");
    lock::LockEngine engine{module, lock::PairTable::fixed()};
    support::Rng rng{4};
    state.ResumeTiming();
    benchmark::DoNotOptimize(
        lock::hraLock(engine, engine.initialLockableOps() / 2, rng).bitsUsed);
  }
}
BENCHMARK(BM_HraLock)->Iterations(20);

void BM_ExtractLocalities(benchmark::State& state) {
  rtl::Module module = designs::makePlusNetwork(static_cast<int>(state.range(0)));
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  support::Rng rng{5};
  lock::assureRandomLock(engine, static_cast<int>(0.75 * engine.initialLockableOps()), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attack::extractLocalities(module, {}));
  }
}
BENCHMARK(BM_ExtractLocalities)->Arg(128)->Arg(1024)->Arg(2046);

void BM_VerilogRoundTrip(benchmark::State& state) {
  const rtl::Module module = designs::makeBenchmark("MD5");
  const std::string text = verilog::writeModule(module);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verilog::writeModule(verilog::parseModule(text)));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(text.size()));
}
BENCHMARK(BM_VerilogRoundTrip);

/// A served lock's cold netlist: a random module with slices off.
std::string randomNetlist(int operations, std::uint64_t seed) {
  support::Rng rng{seed};
  designs::RandomModuleParams params;
  params.operations = operations;
  params.useSlices = false;
  return verilog::writeModule(designs::makeRandomModule(rng, params));
}

void BM_ParseDesign(benchmark::State& state) {
  // Lex, parse and verify; items are operations, so a flat ns-per-item rate
  // across the sizes means the cold build is linear in the netlist.
  const std::string text = randomNetlist(static_cast<int>(state.range(0)), 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(verilog::parseDesign(text));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ParseDesign)->Arg(250)->Arg(1000)->Arg(4000)->Unit(benchmark::kMicrosecond);

void BM_LockResponseDump(benchmark::State& state) {
  // The encode step of a cold served lock: the response document of a
  // 1000-op netlist (locked Verilog plus key records) to bytes.
  service::SessionCache cache;
  service::LockRequest request;
  request.source = randomNetlist(1000, 9);
  const service::LockResponse response = service::runLock(cache, request);
  std::size_t bytes = 0;
  for (auto _ : state) {
    const std::string body = service::lockResponseDocument(response).dump();
    bytes = body.size();
    benchmark::DoNotOptimize(body.data());
  }
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_LockResponseDump)->Unit(benchmark::kMicrosecond);

void BM_SimulateCycle(benchmark::State& state) {
  const rtl::Module module = designs::makeBenchmark("SHA256");
  sim::Evaluator eval{module};
  support::Rng rng{6};
  const auto blk = *module.findSignal("blk");
  for (auto _ : state) {
    eval.setValue(blk, sim::BitVector::random(32, rng));
    eval.settle();
    benchmark::DoNotOptimize(eval.value(*module.findSignal("digest")));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SimulateCycle);

void BM_CompileProgram(benchmark::State& state) {
  // One-off cost the sliced tape pays per (module, lock) combination.
  const rtl::Module module = designs::makeBenchmark("SHA256");
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::Compiler::compileSliced(module).instructionCount());
  }
}
BENCHMARK(BM_CompileProgram)->Iterations(50);

void BM_CorruptionSweep(benchmark::State& state) {
  // Oracle-attack hot loop: one compiled pair, many hypothesis keys.
  const rtl::Module original = designs::makeBenchmark("SHA256");
  rtl::Module locked = original.clone();
  lock::LockEngine engine{locked, lock::PairTable::fixed()};
  support::Rng lockRng{9};
  lock::assureRandomLock(engine, engine.initialLockableOps() / 2, lockRng);
  sim::Harness harness{original, locked};
  sim::EquivalenceOptions options;
  options.vectors = 4;
  support::Rng keyRng{10};
  for (auto _ : state) {
    support::Rng stimulusRng{11};
    benchmark::DoNotOptimize(harness.outputCorruption(
        sim::BitVector::random(locked.keyWidth(), keyRng), options, stimulusRng));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CorruptionSweep);

/// `design` ASSURE-locked at `percent` % of its lockable ops, plus `keyCount`
/// random hypothesis keys: the shape an oracle-guided attack sweeps.
struct SweepFixture {
  rtl::Module original;
  rtl::Module locked;
  std::vector<sim::BitVector> keys;
  sim::EquivalenceOptions options{4, 4};

  SweepFixture(const std::string& design, int percent, int keyCount)
      : original(designs::makeBenchmark(design)), locked(original.clone()) {
    lock::LockEngine engine{locked, lock::PairTable::fixed()};
    support::Rng rng{13};
    lock::assureRandomLock(engine, engine.initialLockableOps() * percent / 100, rng);
    for (int i = 0; i < keyCount; ++i) {
      keys.push_back(sim::BitVector::random(locked.keyWidth(), rng));
    }
  }
};

void BM_BatchCorruptionSweep(benchmark::State& state, const char* design, int percent,
                             int keyCount) {
  // Every key through the bit-sliced tape at once: outputCorruptionBatch
  // packs the key x vector measurements 64 per tape pass.
  const SweepFixture sweep{design, percent, keyCount};
  sim::Harness harness{sweep.original, sweep.locked};
  for (auto _ : state) {
    support::Rng stimulusRng{14};
    benchmark::DoNotOptimize(harness.outputCorruptionBatch(sweep.keys, sweep.options, stimulusRng));
  }
  state.SetItemsProcessed(state.iterations() * keyCount);
}
BENCHMARK_CAPTURE(BM_BatchCorruptionSweep, SHA256_50pct_20keys, "SHA256", 50, 20);
BENCHMARK_CAPTURE(BM_BatchCorruptionSweep, FIR_75pct_64keys, "FIR", 75, 64);

void BM_LintLocked(benchmark::State& state) {
  // Full verifier + security lint (key-influence fixpoint included) over a
  // locked SHA256: the `rtlock lint` hot path and the price debug builds pay
  // per RTLOCK_DEBUG_VERIFY_IR call site.
  const SweepFixture fixture{"SHA256", 50, 0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::verify(fixture.locked));
    benchmark::DoNotOptimize(analysis::lintLocked(fixture.locked));
  }
}
BENCHMARK(BM_LintLocked)->Unit(benchmark::kMicrosecond);

void BM_BitVectorNarrowOps(benchmark::State& state) {
  // Small-buffer fast path: width <= 64 vectors never touch the heap.
  const int width = static_cast<int>(state.range(0));
  support::Rng rng{12};
  const sim::BitVector a = sim::BitVector::random(width, rng);
  const sim::BitVector b = sim::BitVector::random(width, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sim::BitVector::bitXor(sim::BitVector::add(a, b, width), a, width));
  }
  state.SetItemsProcessed(2 * state.iterations());
}
BENCHMARK(BM_BitVectorNarrowOps)->Arg(8)->Arg(32)->Arg(64)->Arg(128);

void BM_AutoMlSelect(benchmark::State& state) {
  support::Rng rng{7};
  ml::Dataset data{2};
  for (int i = 0; i < 20000; ++i) {
    const auto c1 = static_cast<double>(rng.below(8));
    const auto c2 = static_cast<double>(rng.below(8));
    data.add({c1, c2}, rng.chance(c1 > c2 ? 0.8 : 0.3) ? 1 : 0);
  }
  ml::AutoMlConfig config;
  config.folds = 3;
  for (auto _ : state) {
    support::Rng selectRng{8};
    benchmark::DoNotOptimize(ml::autoSelect(data, config, selectRng).bestCvAccuracy);
  }
}
BENCHMARK(BM_AutoMlSelect)->Iterations(5);

/// BM_SampleIndices/<n>: auto-ml's 100k-row cap drawn over n harvested
/// rows (DES3's 175k at 1000 rounds, N_2046's 2.8M).
void BM_SampleIndices(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  support::Rng rng{9};
  for (auto _ : state) benchmark::DoNotOptimize(rng.sampleIndices(rows, 100000));
}
BENCHMARK(BM_SampleIndices)->Arg(175000)->Arg(2800000)->Unit(benchmark::kMillisecond);

/// `design` locked under ASSURE at 75 % with `rng`, as the SnapShot
/// attack's target.
rtl::Module lockedTarget(const char* design, support::Rng& rng) {
  rtl::Module module = designs::makeBenchmark(design);
  lock::LockEngine engine{module, lock::PairTable::fixed()};
  (void)lock::lockWithAlgorithm(engine, lock::Algorithm::AssureSerial,
                                static_cast<int>(0.75 * engine.initialLockableOps()), rng,
                                lock::ReportDetail::Summary);
  return module;
}

/// lockedTarget, ready for tree-free relock rounds.
attack::PoolRelocker poolRelocker(const char* design, bool extendedFeatures, support::Rng& rng) {
  attack::LocalityConfig config;
  config.extendedFeatures = extendedFeatures;
  return attack::PoolRelocker::build(lockedTarget(design, rng), lock::PairTable::fixed(), config);
}

/// BM_PoolRelockRound/<design>: the attack's relock step, 100 rounds at a
/// 75 % budget on a fresh relocker per iteration; items are harvested rows,
/// so the rate reads as rows per second.  SASC and SIM_SPI nest lockable
/// operations, so their dummies clone operand subtrees and key muxes.
void BM_PoolRelockRound(benchmark::State& state, const char* design) {
  support::Rng rng{10};
  const attack::PoolRelocker target = poolRelocker(design, false, rng);
  const int budget = static_cast<int>(0.75 * target.totalLockableOps());
  constexpr int kRounds = 100;
  std::size_t rows = 0;
  for (auto _ : state) {
    attack::PoolRelocker relocker = target;
    relocker.reserveRows(static_cast<std::size_t>(budget) * kRounds);
    for (int round = 0; round < kRounds; ++round) relocker.relockRound(budget, rng);
    rows += relocker.rowCount();
    benchmark::DoNotOptimize(relocker.rowCount());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rows));
}
BENCHMARK_CAPTURE(BM_PoolRelockRound, DES3, "DES3")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PoolRelockRound, N_2046, "N_2046")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PoolRelockRound, SASC, "SASC")->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_PoolRelockRound, SIM_SPI, "SIM_SPI")->Unit(benchmark::kMillisecond);

/// BM_TreeRelockRound/<design>: the same 100 rounds on the tree (relock
/// the live module, harvest into a Dataset, undo), the oracle
/// PoolRelocker is tested against; items are harvested rows.
void BM_TreeRelockRound(benchmark::State& state, const char* design) {
  support::Rng rng{10};
  rtl::Module target = lockedTarget(design, rng);
  lock::LockEngine engine{target, lock::PairTable::fixed()};
  const int budget = static_cast<int>(0.75 * engine.totalLockableOps());
  constexpr int kRounds = 100;
  std::size_t rows = 0;
  for (auto _ : state) {
    attack::LocalityHarvester harvester{engine, {}};
    ml::Dataset training{attack::featureCount({})};
    for (int round = 0; round < kRounds; ++round) {
      const std::size_t checkpoint = engine.checkpoint();
      harvester.beginRound();
      (void)lock::assureRandomLock(engine, budget, rng, lock::ReportDetail::Summary);
      harvester.harvestInto(training);
      engine.undoTo(checkpoint);
    }
    rows += training.size();
    benchmark::DoNotOptimize(training.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rows));
}
BENCHMARK_CAPTURE(BM_TreeRelockRound, SASC, "SASC")->Unit(benchmark::kMillisecond);

/// DES3 after 1000 tree-free relock rounds: 175k rows in the compact row
/// store, so the 100k-row cap samples.
attack::PoolRelocker relockedDes3(bool extendedFeatures) {
  support::Rng rng{10};
  attack::PoolRelocker relocker = poolRelocker("DES3", extendedFeatures, rng);
  const int budget = static_cast<int>(0.75 * relocker.totalLockableOps());
  for (int round = 0; round < 1000; ++round) relocker.relockRound(budget, rng);
  return relocker;
}

/// BM_PoolFoldAggregates/<extended>: the SnapShot attack's fold step, the
/// kept rows folded straight from the row store.
void BM_PoolFoldAggregates(benchmark::State& state) {
  const attack::PoolRelocker relocker = relockedDes3(state.range(0) != 0);
  for (auto _ : state) {
    support::Rng rng{11};
    benchmark::DoNotOptimize(relocker.foldAggregates(100000, 3, rng).all.size());
  }
}
BENCHMARK(BM_PoolFoldAggregates)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// BM_DatasetFoldAggregates/<extended>: the same folds the way
/// autoSelect(Dataset) builds them, through a Dataset of the kept rows.
void BM_DatasetFoldAggregates(benchmark::State& state) {
  const bool extended = state.range(0) != 0;
  const attack::PoolRelocker relocker = relockedDes3(extended);
  const std::size_t features = extended ? 6 : 2;
  std::array<double, 6> row{};
  for (auto _ : state) {
    support::Rng rng{11};
    ml::Dataset kept{static_cast<int>(features)};
    kept.reserveRows(100000);
    ml::forEachSampledRow(relocker.rowCount(), 100000, rng, [&](std::size_t i, double weight) {
      const int label = relocker.row(i, row);
      kept.add(ml::RowView{row.data(), features}, label, weight);
    });
    benchmark::DoNotOptimize(kept.kFoldAggregated(3, rng).all.size());
  }
}
BENCHMARK(BM_DatasetFoldAggregates)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// An aggregated CV train fold shaped like the SnapShot attack's: raw
/// locality rows (2 basic or 6 extended-style features, both labels per
/// tuple) folded 3 ways, fold 0's aggregated train set kept.
ml::Dataset candidateFold(int features) {
  support::Rng rng{11};
  ml::Dataset raw{features};
  std::vector<double> row(static_cast<std::size_t>(features));
  for (int i = 0; i < 20000; ++i) {
    for (std::size_t f = 0; f < row.size(); ++f) {
      row[f] = static_cast<double>(rng.below(f < 2 ? 6 : 2));
    }
    raw.add(row, rng.chance(row[0] > row[1] ? 0.8 : 0.3) ? 1 : 0);
  }
  return std::move(raw.kFoldAggregated(3, rng).folds.front().first);
}

/// BM_CandidateFit/<portfolio index>/<features>: one defaultPortfolio()
/// candidate's fit on a fixed fold, so each kernel's cost shows per
/// candidate.
void BM_CandidateFit(benchmark::State& state) {
  const auto candidate =
      std::move(ml::defaultPortfolio()[static_cast<std::size_t>(state.range(0))]);
  const ml::Dataset fold = candidateFold(static_cast<int>(state.range(1)));
  state.SetLabel(candidate->name() + ", " + std::to_string(fold.size()) + " rows");
  for (auto _ : state) {
    auto model = candidate->fresh();
    support::Rng rng{12};
    model->fit(fold, rng);
    benchmark::DoNotOptimize(model->predictProba(fold.row(0)));
  }
}
BENCHMARK(BM_CandidateFit)
    ->ArgsProduct({benchmark::CreateDenseRange(
                       0, static_cast<int>(ml::defaultPortfolio().size()) - 1, 1),
                   {2, 6}})
    ->Unit(benchmark::kMicrosecond);

/// BM_MlpFit: auto-ml's MLP candidate on one 2-feature code-tuple fold (the
/// candidateFold above), the fit the owned tanh and the four-lane backward
/// pass serve.
void BM_MlpFit(benchmark::State& state) {
  auto portfolio = ml::defaultPortfolio();
  const auto mlp = std::find_if(portfolio.begin(), portfolio.end(),
                                [](const auto& c) { return c->name().starts_with("mlp("); });
  const ml::Dataset fold = candidateFold(2);
  state.SetLabel((*mlp)->name() + ", " + std::to_string(fold.size()) + " rows");
  for (auto _ : state) {
    auto model = (*mlp)->fresh();
    support::Rng rng{12};
    model->fit(fold, rng);
    benchmark::DoNotOptimize(model->predictProba(fold.row(0)));
  }
}
BENCHMARK(BM_MlpFit)->Unit(benchmark::kMicrosecond);

/// BM_Tanh/{owned,libm}: 4096 MLP-like pre-activations (normal, sd 2)
/// through ml::tanhInPlace or std::tanh; ns per element is the inverse of
/// items_per_second.
void BM_Tanh(benchmark::State& state, bool owned) {
  support::Rng rng{5};
  std::vector<double> inputs(4096);
  for (double& x : inputs) x = 2.0 * rng.gaussian();
  std::vector<double> out(inputs.size());
  for (auto _ : state) {
    if (owned) {
      std::copy(inputs.begin(), inputs.end(), out.begin());
      ml::tanhInPlace(out);
    } else {
      for (std::size_t i = 0; i < inputs.size(); ++i) out[i] = std::tanh(inputs[i]);
    }
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(inputs.size()));
}
BENCHMARK_CAPTURE(BM_Tanh, owned, true);
BENCHMARK_CAPTURE(BM_Tanh, libm, false);

}  // namespace

BENCHMARK_MAIN();
