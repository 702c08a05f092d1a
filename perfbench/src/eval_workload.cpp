// fig6_r1000 and fig6_r100: the product path `service::runEval` over the
// paper's Fig. 6 grid, once per registry design, with a journal.
//
// Timed run: setup (design emission + session builds) is repeated
// kSetupRepeats times; then passes over the grid run, at least minPasses of
// them and until their summed wall time reaches --seconds.  Pass p takes the
// next seedsPerPass seeds of the run's seed range.  An op is one attacked
// cell; its latency is the campaign runner's per-cell wall time.
//
// Checks (untimed, after the passes): every cell ok; for the default seed
// the no-wall report rows of pass 0 match the digests recorded below; a
// second runEval on each pass's journals reloads every cell and reproduces
// the rows.
//
// Traced run: additionally replays every cell through the calls
// evaluateBenchmark and snapshotAttack compose, with spans around each layer
// call, and asserts the replayed payload equals the journaled one.
#include <filesystem>
#include <unordered_map>

#include "attack/harvest.hpp"
#include "attack/snapshot.hpp"
#include "campaign/journal.hpp"
#include "core/algorithms.hpp"
#include "designs/registry.hpp"
#include "ml/automl.hpp"
#include "service/api.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/task_pool.hpp"
#include "verilog/writer.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using rtlock::support::JsonValue;

/// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 15;
namespace service = rtlock::service;
namespace lock = rtlock::lock;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kThreads = 2;
constexpr int kSamples = 1;  // locked samples per cell
constexpr lock::Algorithm kAlgorithms[] = {lock::Algorithm::AssureSerial, lock::Algorithm::Hra,
                                           lock::Algorithm::Era};

struct EvalSpec {
  const char* name;
  bool includeNetworks;  // the synthetic N_2046 / N_1023 designs
  int rounds;
  int seedsPerPass;
  /// Passes per run at least: fig6_r100 runs two passes of 504 cells, so a
  /// run covers 1008 cells while each pass's tail is a p90 with 50 cells
  /// beyond it rather than a p99 with 10.
  std::size_t minPasses;
  /// fnv1a64Hex of the no-wall report rows per design (registry order) at
  /// kDefaultSeed.
  std::vector<std::string> digests;
};

const EvalSpec& specFor(const std::string& workload) {
  static const EvalSpec kFig6R1000{
      "fig6_r1000", true, 1000, 3, 1,
      {"2955c0f299f0bfa5", "83c4e72faacf24fa", "e56e7946b623e2a5", "577c68609759f72e",
       "b36dcdbbf91adddf", "3be1e0a6d0562c95", "ebe93029988efc06", "ea7013c6d8089320",
       "6e09836d47d022c2", "86965e79804eef71", "c30fdddfaf666f7c", "235b6302f99b291e",
       "827b1c9291f09844", "a8ba4099ac0d6158"}};
  static const EvalSpec kFig6R100{
      "fig6_r100", false, 100, 14, 2,
      {"2a41ac28c11a3e13", "4bdbeeb8bc4538d6", "239342450a0b4907", "60fba28c2a9d187e",
       "771023b636c15c9e", "b83c27931a4b4766", "06a0d2ddfd6e621b", "eee0fd55b3b71a39",
       "6c5125148ad47b3e", "7f9c99b5301a62c3", "77a38404cb5a01fc", "99ec54aead193ed6"}};
  if (workload == kFig6R1000.name) return kFig6R1000;
  if (workload == kFig6R100.name) return kFig6R100;
  throw rtlock::support::Error{"unknown eval workload " + workload};
}

/// Cell seeds of pass `pass`: the next `count` seeds of a contiguous range
/// whose start is drawn from --seed.
std::vector<std::uint64_t> seedsFor(std::uint64_t seed, int count, std::size_t pass) {
  rtlock::support::Rng rng{seed};
  const std::uint64_t first = (rng() >> 24) + pass * static_cast<std::uint64_t>(count);
  std::vector<std::uint64_t> seeds;
  for (int i = 0; i < count; ++i) seeds.push_back(first + static_cast<std::uint64_t>(i));
  return seeds;
}

struct DesignInput {
  std::string name;
  std::string source;
};

struct Setup {
  std::unique_ptr<service::SessionCache> cache;
  std::vector<DesignInput> designs;
};

Setup buildSetup(const EvalSpec& spec, Tracer* tracer) {
  Setup setup;
  setup.cache = std::make_unique<service::SessionCache>();
  for (const rtlock::designs::BenchmarkInfo& info : rtlock::designs::allBenchmarks()) {
    if (!spec.includeNetworks && info.name.rfind("N_", 0) == 0) continue;
    const rtlock::rtl::Module module = info.make();
    DesignInput input{info.name, {}};
    {
      ScopedSpan span{tracer, "verilog.write", 0};
      input.source = rtlock::verilog::writeModule(module);
    }
    {
      ScopedSpan span{tracer, "session.build", 0};
      (void)setup.cache->fetch(input.source, service::SessionOptions{});
    }
    setup.designs.push_back(std::move(input));
  }
  return setup;
}

service::EvalRequest requestFor(const EvalSpec& spec, const DesignInput& design,
                                const std::vector<std::uint64_t>& seeds, std::string journal) {
  service::EvalRequest request;
  request.source = design.source;
  request.algorithms.assign(std::begin(kAlgorithms), std::end(kAlgorithms));
  request.seeds = seeds;
  request.samples = kSamples;
  request.rounds = spec.rounds;
  request.folds = 3;
  request.campaign.threads = kThreads;
  request.journalPath = std::move(journal);
  return request;
}

std::string noWallRows(const service::EvalResponse& response) {
  const std::vector<service::ReportRow> rows = service::evalReportRows(
      response.moduleName, response.setup, response.cells,
      [&](std::size_t i) { return &response.campaign.outcomes[i]; }, /*includeWall=*/false);
  return service::rowsToJson(rows).dumpLine();
}

// ---- traced replay -----------------------------------------------------------

struct ReplayOutcome {
  std::string payload;
  double rowsHarvested = 0.0;
  double rowsUsed = 0.0;
  double cvSeconds = 0.0;
  std::int64_t durationNs = 0;
};

struct SampleReplay {
  double kpa = 0.0;
  double keyBits = 0.0;
};

/// snapshotAttack's steps, one span per layer call.
SampleReplay replaySnapshot(rtlock::rtl::Module& target,
                            const std::vector<lock::LockRecord>& truth,
                            const rtlock::attack::SnapshotConfig& config,
                            rtlock::support::Rng& rng, Tracer* tracer, std::uint64_t op,
                            ReplayOutcome& outcome) {
  std::vector<rtlock::attack::Locality> localities;
  {
    ScopedSpan span{tracer, "attack.extract", op};
    localities = rtlock::attack::extractLocalities(target, config.locality);
  }
  std::unordered_map<int, const rtlock::ml::FeatureRow*> features;
  for (const rtlock::attack::Locality& locality : localities) {
    features.emplace(locality.keyIndex, &locality.features);
  }

  lock::LockEngine engine{target, lock::PairTable::fixed()};
  rtlock::attack::LocalityHarvester harvester{engine, config.locality};
  rtlock::ml::Dataset training{rtlock::attack::featureCount(config.locality)};
  for (int round = 0; round < config.relockRounds; ++round) {
    const std::size_t checkpoint = engine.checkpoint();
    const int budget =
        std::max(1, static_cast<int>(config.relockBudgetFraction *
                                     static_cast<double>(engine.totalLockableOps())));
    harvester.beginRound();
    {
      ScopedSpan span{tracer, "core.relock", op};
      (void)lock::assureRandomLock(engine, budget, rng, lock::ReportDetail::Summary);
    }
    {
      ScopedSpan span{tracer, "attack.harvest", op};
      harvester.harvestInto(training);
    }
    {
      ScopedSpan span{tracer, "core.undo", op};
      engine.undoTo(checkpoint);
    }
    if (round == 0) {
      training.reserveRows(training.size() * static_cast<std::size_t>(config.relockRounds - 1));
    }
  }
  outcome.rowsHarvested += static_cast<double>(training.size());
  outcome.rowsUsed +=
      static_cast<double>(std::min(training.size(), config.automl.maxTrainingRows));

  rtlock::ml::AutoMlResult automl;
  {
    ScopedSpan span{tracer, "ml.automl", op};
    automl = rtlock::ml::autoSelect(training, config.automl, rng);
  }
  for (const rtlock::ml::LeaderboardEntry& entry : automl.leaderboard) {
    outcome.cvSeconds += entry.seconds;
  }

  int correct = 0;
  int keyBits = 0;
  for (const lock::LockRecord& record : truth) {
    const auto found = features.find(record.keyIndex);
    if (found == features.end()) throw rtlock::support::Error{"replay: key bit without locality"};
    int predicted = 0;
    {
      ScopedSpan span{tracer, "ml.predict", op};
      predicted = automl.model->predict(*found->second);
    }
    ++keyBits;
    if (predicted == (record.keyValue ? 1 : 0)) ++correct;
  }
  SampleReplay sample;
  sample.keyBits = static_cast<double>(keyBits);
  sample.kpa = keyBits == 0 ? 0.0
                            : 100.0 * static_cast<double>(correct) / static_cast<double>(keyBits);
  return sample;
}

/// One cell as runEval computes it (evaluateBenchmark with threads=1: one
/// module clone restored by undoAll between samples), same seeding.
ReplayOutcome replayCell(const rtlock::rtl::Module& original, std::size_t algoIndex,
                         std::uint64_t seed, const EvalSpec& spec, Tracer* tracer,
                         std::uint64_t op) {
  ReplayOutcome outcome;
  ScopedSpan root{tracer, "eval.cell", op, 0};
  rtlock::attack::SnapshotConfig config;
  config.relockRounds = spec.rounds;
  config.relockBudgetFraction = 0.75;
  config.automl.folds = 3;
  const double keyBudgetFraction = 0.75;
  const lock::Algorithm algorithm = kAlgorithms[algoIndex];

  rtlock::support::Rng cellRng = rtlock::support::Rng{seed}.substream(algoIndex);
  const rtlock::support::Rng sampleRoot = cellRng.fork();
  rtlock::rtl::Module module = original.clone();
  lock::LockEngine engine{module, lock::PairTable::fixed()};

  double kpaSum = 0.0;
  double minKpa = 100.0;
  double maxKpa = 0.0;
  double keyBitsSum = 0.0;
  double globalSum = 0.0;
  double restrictedSum = 0.0;
  for (int s = 0; s < kSamples; ++s) {
    rtlock::support::Rng rng = sampleRoot.substream(static_cast<std::uint64_t>(s));
    const int budget = std::max(
        1, static_cast<int>(keyBudgetFraction * static_cast<double>(engine.initialLockableOps())));
    lock::AlgorithmReport report;
    {
      ScopedSpan span{tracer, "core.lock", op};
      report = lock::lockWithAlgorithm(engine, algorithm, budget, rng, lock::ReportDetail::Summary);
    }
    const std::vector<lock::LockRecord> truth = engine.records();
    const SampleReplay sample = replaySnapshot(module, truth, config, rng, tracer, op, outcome);
    {
      ScopedSpan span{tracer, "core.undo", op};
      engine.undoAll();
    }
    kpaSum += sample.kpa;
    minKpa = std::min(minKpa, sample.kpa);
    maxKpa = std::max(maxKpa, sample.kpa);
    keyBitsSum += sample.keyBits;
    globalSum += report.finalGlobalMetric;
    restrictedSum += report.finalRestrictedMetric;
  }
  const auto n = static_cast<double>(kSamples);
  JsonValue payload;
  payload.set("mean_kpa_percent", kpaSum / n);
  payload.set("min_kpa_percent", minKpa);
  payload.set("max_kpa_percent", maxKpa);
  payload.set("mean_key_bits", keyBitsSum / n);
  payload.set("mean_global_metric", globalSum / n);
  payload.set("mean_restricted_metric", restrictedSum / n);
  outcome.payload = payload.dumpLine();
  root.close();
  outcome.durationNs = root.elapsedNs();
  return outcome;
}

}  // namespace

WorkloadResult runEvalWorkload(const RunOptions& options) {
  const EvalSpec& spec = specFor(options.run.workload);
  std::unique_ptr<Tracer> tracer = options.run.trace ? std::make_unique<Tracer>() : nullptr;
  WorkloadResult result;
  TimedPhase phase;

  // ---- setup, repeated; the last one is kept ----
  Setup setup;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    const std::int64_t start = nowNs();
    setup = buildSetup(spec, repeat + 1 == kSetupRepeats ? tracer.get() : nullptr);
    std::filesystem::create_directories(options.workDir);
    phase.setupSeconds.push_back(static_cast<double>(nowNs() - start) / 1e9);
  }
  const std::size_t designCount = setup.designs.size();

  // ---- timed passes ----
  std::vector<std::vector<service::EvalResponse>> passes;
  std::vector<std::vector<std::uint64_t>> passSeeds;
  const auto journalOf = [&](std::size_t pass, const DesignInput& design) {
    return (std::filesystem::path{options.workDir} / ("pass-" + std::to_string(pass)) /
            (design.name + ".jsonl"))
        .string();
  };
  double timedSeconds = 0.0;
  while (passes.size() < spec.minPasses || timedSeconds < options.run.seconds) {
    passSeeds.push_back(seedsFor(options.run.seed, spec.seedsPerPass, passes.size()));
    const std::vector<std::uint64_t>& seeds = passSeeds.back();
    std::filesystem::create_directories(
        std::filesystem::path{options.workDir} / ("pass-" + std::to_string(passes.size())));
    std::vector<service::EvalResponse> responses;
    responses.reserve(designCount);
    const double cpuStart = processCpuSeconds();
    const std::int64_t start = nowNs();
    for (const DesignInput& design : setup.designs) {
      responses.push_back(service::runEval(
          *setup.cache, requestFor(spec, design, seeds, journalOf(passes.size(), design))));
    }
    const double wall = static_cast<double>(nowNs() - start) / 1e9;
    phase.passCpuSeconds.push_back(processCpuSeconds() - cpuStart);
    phase.passWallSeconds.push_back(wall);
    timedSeconds += wall;
    passes.push_back(std::move(responses));
  }
  phase.peakRssMb = peakRssMb();

  // ---- per-cell outcomes (op index = pass, design, cell) ----
  OpTally ops;
  std::vector<std::vector<std::size_t>> firstOp(passes.size(), std::vector<std::size_t>(designCount));
  double cellWallMs = 0.0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (std::size_t d = 0; d < designCount; ++d) {
      firstOp[p][d] = ops.attempted();
      const service::EvalResponse& response = passes[p][d];
      for (std::size_t c = 0; c < response.cells.size(); ++c) {
        const rtlock::campaign::CellOutcome& outcome = response.campaign.outcomes[c];
        cellWallMs += outcome.wallMs;
        if (outcome.status == rtlock::campaign::CellStatus::Ok) {
          ops.ok(outcome.wallMs);
        } else {
          ops.failed();
        }
      }
    }
  }
  const auto failDesign = [&](std::size_t p, std::size_t d) {
    for (std::size_t c = 0; c < passes[p][d].cells.size(); ++c) ops.markFailed(firstOp[p][d] + c);
  };

  // ---- output checks ----
  JsonValue digests{rtlock::support::JsonObject{}};
  std::size_t digestMismatches = 0;
  for (std::size_t d = 0; d < designCount; ++d) {
    const std::string digest = rtlock::support::fnv1a64Hex(noWallRows(passes[0][d]));
    digests.set(setup.designs[d].name, digest);
    if (options.run.seed == kDefaultSeed && spec.digests.at(d) != digest) {
      ++digestMismatches;
      for (std::size_t p = 0; p < passes.size(); ++p) failDesign(p, d);
    }
  }
  std::size_t reloadMismatches = 0;
  for (std::size_t p = 0; p < passes.size(); ++p) {
    for (std::size_t d = 0; d < designCount; ++d) {
      service::EvalRequest request =
          requestFor(spec, setup.designs[d], passSeeds[p], journalOf(p, setup.designs[d]));
      request.includeWall = false;
      const service::EvalResponse reloaded = service::runEval(*setup.cache, request);
      if (reloaded.campaign.journaledCells != reloaded.cells.size() ||
          service::rowsToJson(reloaded.rows).dumpLine() != noWallRows(passes[p][d])) {
        ++reloadMismatches;
        failDesign(p, d);
      }
    }
  }

  // ---- traced replay of every cell ----
  const service::SessionCache::Stats cacheStats = setup.cache->stats();  // before replay fetches
  if (tracer != nullptr) {
    struct CellRef {
      std::size_t pass;
      std::size_t design;
      std::size_t cell;
    };
    std::vector<CellRef> cells;
    for (std::size_t p = 0; p < passes.size(); ++p) {
      for (std::size_t d = 0; d < designCount; ++d) {
        for (std::size_t c = 0; c < passes[p][d].cells.size(); ++c) cells.push_back({p, d, c});
      }
    }
    std::vector<const rtlock::rtl::Module*> originals;
    for (const DesignInput& design : setup.designs) {
      originals.push_back(&setup.cache->fetch(design.source, service::SessionOptions{}).session->module(0));
    }
    // Untraced first, then traced: the wall-time difference is the tracing
    // overhead.
    rtlock::support::TaskPool pool{kThreads};
    const auto replayAll = [&](Tracer* replayTracer) {
      return pool.map(cells.size(), [&](std::size_t i) {
        const CellRef& ref = cells[i];
        const std::vector<std::uint64_t>& seeds = passSeeds[ref.pass];
        const std::size_t algoIndex = ref.cell / seeds.size();
        return replayCell(*originals[ref.design], algoIndex, seeds[ref.cell % seeds.size()], spec,
                          replayTracer, i + 1);
      });
    };
    std::int64_t start = nowNs();
    const std::vector<ReplayOutcome> untraced = replayAll(nullptr);
    const double untracedWall = static_cast<double>(nowNs() - start) / 1e9;
    start = nowNs();
    const std::vector<ReplayOutcome> replayed = replayAll(tracer.get());
    const double tracedWall = static_cast<double>(nowNs() - start) / 1e9;

    LayerExtras extras;
    double replayMs = 0.0;
    double journaledMs = 0.0;
    std::size_t replayMismatches = 0;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      const CellRef& ref = cells[i];
      const rtlock::campaign::CellOutcome& outcome =
          passes[ref.pass][ref.design].campaign.outcomes[ref.cell];
      if (replayed[i].payload != outcome.payload.dumpLine() ||
          untraced[i].payload != replayed[i].payload) {
        ++replayMismatches;
        ops.markFailed(firstOp[ref.pass][ref.design] + ref.cell);
      }
      extras.rowsHarvested += replayed[i].rowsHarvested;
      extras.rowsUsedRatio += replayed[i].rowsUsed;
      extras.mlCvMs += replayed[i].cvSeconds * 1000.0;
      replayMs += static_cast<double>(replayed[i].durationNs) / 1e6;
      journaledMs += outcome.wallMs;
    }
    extras.rowsUsedRatio = extras.rowsHarvested > 0 ? extras.rowsUsedRatio / extras.rowsHarvested : 0.0;

    // Journal appends of the run's real rows, re-appended to scratch journals.
    for (std::size_t p = 0; p < passes.size(); ++p) {
      for (const DesignInput& design : setup.designs) {
        const std::string path = journalOf(p, design);
        const rtlock::campaign::JournalFile file = rtlock::campaign::readJournalFile(path);
        rtlock::campaign::Journal scratch{path + ".reappend", file.identity};
        for (const rtlock::campaign::JournalRow& row : file.rows) {
          ScopedSpan span{tracer.get(), "campaign.journal", 0};
          scratch.append(row);
        }
      }
    }

    const std::vector<Span> spans = tracer->spans();
    const std::map<std::string, LayerTime> layers = layerTimes(spans);
    const LayerTime root = layers.count("eval.cell") != 0 ? layers.at("eval.cell") : LayerTime{};
    extras.sessionHitRatio = static_cast<double>(cacheStats.hits) /
                             static_cast<double>(cacheStats.hits + cacheStats.misses);
    extras.campaignCells = static_cast<double>(ops.attempted());
    double idleMs = 0.0;
    for (const double wall : phase.passWallSeconds) idleMs += kThreads * wall * 1000.0;
    extras.campaignIdleMs = idleMs - cellWallMs;
    extras.coverage = root.totalMs > 0 ? (root.totalMs - root.selfMs) / root.totalMs : 0.0;
    extras.unattributedMs = root.selfMs;
    extras.overheadPercent = 100.0 * (tracedWall - untracedWall) / untracedWall;
    result.perLayer = perLayerMetrics(layers, extras);
    tracer->writeJsonLines(options.traceOut);

    JsonValue replayInfo;
    replayInfo.set("cells", static_cast<std::uint64_t>(cells.size()));
    replayInfo.set("payload_mismatches", static_cast<std::uint64_t>(replayMismatches));
    replayInfo.set("replayed_cell_ms", replayMs);
    replayInfo.set("journaled_cell_ms", journaledMs);
    replayInfo.set("untraced_wall_s", untracedWall);
    replayInfo.set("traced_wall_s", tracedWall);
    replayInfo.set("attributed_over_journaled",
                   journaledMs > 0 ? (root.totalMs - root.selfMs) / journaledMs : 0.0);
    replayInfo.set("spans", static_cast<std::uint64_t>(spans.size()));
    replayInfo.set("trace_file", options.traceOut);
    result.info.set("replay", std::move(replayInfo));
    if (replayMismatches > 0) result.correct = false;
  }

  result.endToEnd = endToEndMetrics(phase, ops);
  result.attempted = ops.attempted();
  result.failed = ops.failedCount();
  if (result.failed > 0 || digestMismatches > 0 || reloadMismatches > 0) result.correct = false;

  JsonValue checks;
  checks.set("passes", static_cast<std::uint64_t>(passes.size()));
  checks.set("cells_per_pass", static_cast<std::uint64_t>(ops.attempted() / passes.size()));
  checks.set("digest_checked", options.run.seed == kDefaultSeed);
  checks.set("digest_mismatches", static_cast<std::uint64_t>(digestMismatches));
  checks.set("reload_mismatches", static_cast<std::uint64_t>(reloadMismatches));
  checks.set("digests", std::move(digests));
  result.info.set("checks", std::move(checks));
  result.info.set("tail", tailInfo(phase, ops));
  return result;
}

}  // namespace perfbench
