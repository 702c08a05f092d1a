// Baseline runner: the quality gate.  It re-runs the headline figure
// reproductions (Fig. 4/5/6) through the same figures.hpp grids the figure
// benches print, and every ablation through the ablations.hpp runs
// `ablation <name>` prints, with fixed seeds, and emits a machine-readable
// BENCH_baseline.json.  Besides the quality rows (12 figure rows, then the
// ablation rows in a second table, then with --full the paper-sized Fig. 6
// rows in a third) it records the three perf rows CI gates: the quick Fig. 6
// grid's wall time and the journal and manifest overhead of a campaign over
// that grid.  Hot-path timings live in perf_microbench
// (google-benchmark) and end-to-end timings in perfbench/.
//
// Flags:
//   --seed=N    master seed (default 1; every section derives fixed offsets)
//   --json      write BENCH_baseline.json (see --out) in addition to stdout
//   --out=PATH  JSON output path (default BENCH_baseline.json)
//   --full      also run the paper-sized Fig. 6 grid (14 designs x 10
//               samples x 1000 relock rounds, seconds on 4 threads) and
//               emit its 42 cells and 3 means as `fig6_full` rows, plus
//               its wall time as perf/fig6_full/wall_ms
//   --csv       emit CSV instead of an aligned table
//   --threads=N experiment-engine workers (default: RTLOCK_THREADS env, else
//               hardware concurrency).  Quality rows are bit-identical at
//               every thread count; only wall times vary.
//   --check=PATH quality gate: compare every non-perf row of this run against
//               the committed baseline JSON at PATH and fail on any drift
//               (CI runs this against the repo-root BENCH_baseline.json).
//               Without --full the committed fig6_full rows are not run,
//               so they are left out of the comparison.
//
// JSON schema: {"schema": "...", "seed": N, "rows": [{bench, config, metric,
// value, wall_ms}, ...]}, one row object per line (CI's awk gates rely on
// that layout).
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "ablations.hpp"
#include "campaign/journal.hpp"
#include "campaign/manifest.hpp"
#include "common.hpp"
#include "figures.hpp"
#include "support/json.hpp"
#include "support/strings.hpp"

namespace {

using namespace rtlock;
using Clock = std::chrono::steady_clock;

struct Row {
  std::string bench;
  std::string config;
  std::string metric;
  double value = 0.0;
  double wallMs = 0.0;  // perf rows only; quality rows carry 0
};

double elapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// A temp-directory path of this process's own, so concurrent runs (CTest
/// runs the gate and its drift twins in parallel) never share a journal or
/// a claim directory.
std::string scratchPath(const std::string& name) {
  const std::string file = "rtlock_bench_" + std::to_string(::getpid()) + "_" + name;
  return (std::filesystem::temp_directory_path() / file).string();
}

// --- Fig. 4: worst key-correlated locality bias per relocking scenario -----

void runFig4(std::vector<Row>& rows, std::uint64_t seed, int threads) {
  const char* names[] = {"serial+serial", "random+random", "serial+disjoint"};
  const auto observations = bench::observeFig4Scenarios(seed, 64, 32, 100, threads);
  for (std::size_t index = 0; index < observations.size(); ++index) {
    rows.push_back({"fig4", names[index], "worst_locality_bias",
                    bench::fig4WorstBias(observations[index])});
  }
}

// --- Fig. 5: key-bit cost and final metric per algorithm -------------------

void runFig5(std::vector<Row>& rows, std::uint64_t seed, int threads) {
  for (const bench::Fig5Run& run : bench::evolveFig5(seed, 60, threads)) {
    const std::string name{lock::algorithmName(run.algorithm)};
    rows.push_back({"fig5", name, "bits_used", static_cast<double>(run.report.bitsUsed)});
    rows.push_back({"fig5", name, "final_global_metric", run.report.finalGlobalMetric});
  }
}

// --- Fig. 6: mean SnapShot-RTL KPA per algorithm ---------------------------
//
// The grid runs on root Rng{seed + 100}, so these rows equal fig6_kpa
// --seed=<seed + 100> at the same configuration.  The quick grid is timed as
// one batch and recorded as the fig6_quick/wall_ms perf row; the journal and
// manifest rows time a campaign's bookkeeping over the same cells, and CI
// gates both under 5 % of that wall.

void runFig6(std::vector<Row>& rows, std::uint64_t seed, int threads) {
  const std::vector<std::string> benchmarks{"FIR", "SASC"};
  const std::string benchConfig = support::join(benchmarks, "+") + " (quick)";
  const std::string perfConfig = "fig6_quick";

  const auto start = Clock::now();
  const bench::Fig6Grid grid =
      bench::runFig6(benchmarks, bench::fig6Config(1, 30), support::Rng{seed + 100}, threads);
  const double gridWallMs = elapsedMs(start);

  for (std::size_t a = 0; a < bench::kFig6Algorithms.size(); ++a) {
    rows.push_back({"fig6",
                    std::string{lock::algorithmName(bench::kFig6Algorithms[a])} + " / " +
                        benchConfig,
                    "mean_kpa_percent", grid.meanKpa(a)});
  }
  rows.push_back({"perf", perfConfig, "wall_ms", gridWallMs, gridWallMs});

  campaign::CampaignIdentity identity;
  identity.designHash = support::fnv1a64Hex(benchConfig);
  identity.configHash = support::fnv1a64Hex(benchConfig + "/config");
  identity.design = "fig6";
  identity.config = benchConfig;
  const std::size_t cellCount = grid.cells.size();

  // Journal overhead: append one representative checkpoint row per grid
  // cell to a real journal (serialize + single write + flush, the campaign
  // engine's per-cell cost) and record the total.
  const std::string journalPath = scratchPath("journal.jsonl");
  std::filesystem::remove(journalPath);
  {
    campaign::Journal journal{journalPath, identity};
    const auto journalStart = Clock::now();
    for (std::size_t index = 0; index < cellCount; ++index) {
      const double kpa = grid.cells[index].meanKpa;
      campaign::JournalRow row;
      row.id = {identity.designHash, "algo", index, identity.configHash};
      row.status = "ok";
      row.attempts = 1;
      row.wallMs = gridWallMs / static_cast<double>(cellCount);
      row.payload.set("mean_kpa_percent", kpa);
      row.payload.set("min_kpa_percent", kpa);
      row.payload.set("max_kpa_percent", kpa);
      row.payload.set("mean_key_bits", 48.0);
      row.payload.set("mean_global_metric", 29.289321881345245);
      row.payload.set("mean_restricted_metric", 100.0);
      journal.append(row);
    }
    const double journalWallMs = elapsedMs(journalStart);
    rows.push_back({"perf", perfConfig, "journal_overhead_ms", journalWallMs, journalWallMs});
  }
  std::filesystem::remove(journalPath);

  // Manifest/claim overhead: the multi-host coordination cost per grid cell
  // (manifest write + O_CREAT|O_EXCL claim + atomic done marker — what
  // `rtlock work` adds on top of journaling).
  const std::string manifestPath = scratchPath("campaign.manifest");
  std::filesystem::remove(manifestPath);
  std::filesystem::remove_all(manifestPath + ".claims");
  {
    campaign::Manifest manifest;
    manifest.identity = identity;
    manifest.setup = benchConfig;
    for (std::size_t index = 0; index < cellCount; ++index) {
      campaign::Cell cell;
      cell.id = {identity.designHash, "algo", index, identity.configHash};
      cell.label = "algo / cell " + std::to_string(index);
      manifest.cells.push_back(cell);
    }
    const auto manifestStart = Clock::now();
    campaign::writeManifest(manifestPath, manifest);
    campaign::ClaimBoard board{manifestPath, "bench-worker", 60000.0};
    for (std::size_t index = 0; index < cellCount; ++index) {
      (void)board.tryClaim(index);
      board.markDone(index, "ok");
    }
    const double manifestWallMs = elapsedMs(manifestStart);
    rows.push_back({"perf", perfConfig, "manifest_overhead_ms", manifestWallMs, manifestWallMs});
  }
  std::filesystem::remove(manifestPath);
  std::filesystem::remove_all(manifestPath + ".claims");
}

// --- Fig. 6, paper-sized (--full) ----------------------------------------
//
// fig6_kpa --seed=<seed + 100> --samples=10 --relocks=1000 over every
// registry design: one row per (algorithm, design) cell with the cell's mean
// KPA over its samples, then the three Fig. 6b means.  At 1000 rounds the
// large designs harvest more rows than auto-ml's 100k-row cap, so these rows
// are the only gate on the capped (non-integer weight) training folds.

void runFig6Full(std::vector<Row>& rows, std::uint64_t seed, int threads) {
  const std::vector<std::string> benchmarks = designs::benchmarkNames();
  const auto start = Clock::now();
  const bench::Fig6Grid grid =
      bench::runFig6(benchmarks, bench::fig6Config(10, 1000), support::Rng{seed + 100}, threads);
  const double gridWallMs = elapsedMs(start);

  for (std::size_t a = 0; a < bench::kFig6Algorithms.size(); ++a) {
    const std::string algorithm{lock::algorithmName(bench::kFig6Algorithms[a])};
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
      rows.push_back({"fig6_full", algorithm + " / " + benchmarks[b], "mean_kpa_percent",
                      grid.at(a, b).meanKpa});
    }
    rows.push_back({"fig6_full", algorithm + " / all designs", "mean_kpa_percent",
                    grid.meanKpa(a)});
  }
  rows.push_back({"perf", "fig6_full", "wall_ms", gridWallMs, gridWallMs});
}

// --- ablations: the gated values of every ablations.hpp run -----------------
//
// Each ablation runs at its `ablation <name>` defaults on this run's seed, so
// at --seed=1 every row is a number the default table prints (oracle's gated
// grid is N_ADD_128 alone, the first rows of its full table).

void runAblations(std::vector<Row>& rows, std::uint64_t seed, int threads) {
  for (const bench::Ablation& ablation : bench::ablations()) {
    const service::Schema& schema = ablation.schema;
    service::FieldValues flags{schema};
    if (flags.knows("seed")) flags.set(schema.at("seed"), seed);
    if (flags.knows("threads")) {
      flags.set(schema.at("threads"), static_cast<std::uint64_t>(threads));
    }
    for (const bench::GatedValue& gated : ablation.run(flags, /*gate=*/true).gated) {
      rows.push_back({std::string{schema.command}, gated.config, gated.metric, gated.value});
    }
  }
}

// --- quality gate -----------------------------------------------------------
//
// --check=PATH re-reads a committed baseline JSON and compares every
// non-`perf` row (the seed-deterministic quality values) against this run at
// the 4 decimals the baseline records.  Quality rows are bit-identical across
// thread counts and machines, so any drift is a real behaviour change — the
// CI job fails on it.

using QualityValues = std::map<std::string, std::string>;  // row key -> value text

std::string qualityKey(const std::string& bench, const std::string& config,
                       const std::string& metric) {
  return bench + " | " + config + " | " + metric;
}

QualityValues committedQuality(const std::string& path, bool full) {
  std::ifstream file{path};
  if (!file) throw support::Error("cannot open committed baseline " + path);
  std::ostringstream text;
  text << file.rdbuf();
  const support::JsonValue document = support::parseJson(text.str());
  QualityValues values;
  for (const support::JsonValue& row : document.at("rows").asArray()) {
    const std::string& bench = row.at("bench").asString();
    if (bench == "perf") continue;                // timings are machine-dependent
    if (bench == "fig6_full" && !full) continue;  // not run without --full
    values[qualityKey(bench, row.at("config").asString(), row.at("metric").asString())] =
        support::formatDouble(row.at("value").asDouble(), 4);
  }
  if (values.empty()) throw support::Error("no quality rows found in committed baseline " + path);
  return values;
}

/// Returns the number of drifting/missing quality rows (0 = gate passes).
int checkAgainstBaseline(const std::vector<Row>& rows, const std::string& path, bool full) {
  const QualityValues committed = committedQuality(path, full);
  QualityValues current;
  for (const Row& row : rows) {
    if (row.bench == "perf") continue;
    current[qualityKey(row.bench, row.config, row.metric)] = support::formatDouble(row.value, 4);
  }

  int failures = 0;
  for (const auto& [key, value] : committed) {
    const auto it = current.find(key);
    if (it == current.end()) {
      std::cout << "quality gate: row disappeared: " << key << "\n";
      ++failures;
    } else if (it->second != value) {
      std::cout << "quality gate: DRIFT in " << key << ": committed " << value << ", got "
                << it->second << "\n";
      ++failures;
    }
  }
  for (const auto& [key, value] : current) {
    if (committed.find(key) == committed.end()) {
      std::cout << "quality gate: new uncommitted quality row: " << key << " = " << value
                << " (regenerate the baseline)\n";
      ++failures;
    }
  }
  if (failures == 0) {
    std::cout << "quality gate: all " << committed.size()
              << " quality rows match the committed baseline\n";
  }
  return failures;
}

void writeJson(std::ostream& out, const std::vector<Row>& rows, std::uint64_t seed) {
  out << "{\n  \"schema\": \"rtlock-bench-baseline/v1\",\n  \"seed\": " << seed
      << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    out << "    {\"bench\": \"" << support::jsonEscape(row.bench) << "\", \"config\": \""
        << support::jsonEscape(row.config) << "\", \"metric\": \""
        << support::jsonEscape(row.metric)
        << "\", \"value\": " << support::formatDouble(row.value, 4)
        << ", \"wall_ms\": " << support::formatDouble(row.wallMs, 2) << "}"
        << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  return rtlock::bench::runBench([&] {
    const service::Schema schema{
        "run_baseline", "",
        {bench::kSeedField, bench::flagField("json"),
         bench::textField("out", "BENCH_baseline.json"), bench::flagField("full"),
         bench::kCsvField, bench::kThreadsField, bench::textField("check", "")}};
    const service::FieldValues flags = service::decodeFlags(schema, {argv + 1, argv + argc});
    const std::uint64_t seed = flags.count("seed");
    const int threads = flags.integer("threads");
    const std::string outPath = flags.text("out");
    const std::string checkPath = flags.text("check");
    const bool full = flags.flag("full");

    rtlock::bench::banner("baseline runner — quality gate",
                          "Fig. 4/5/6 headline numbers (figures.hpp grids), fixed seeds",
                          "deterministic values per (seed, config); timings machine-dependent");

    std::vector<Row> rows;
    const auto start = Clock::now();
    runFig4(rows, seed, threads);
    runFig5(rows, seed, threads);
    runFig6(rows, seed, threads);
    const std::size_t figureRows = rows.size();
    runAblations(rows, seed, threads);
    const std::size_t ablationRows = rows.size();
    if (full) runFig6Full(rows, seed, threads);

    // The ablation and paper-sized Fig. 6 rows print as tables of their
    // own, so the figure table keeps its column widths.
    const std::size_t tableStarts[] = {0, figureRows, ablationRows, rows.size()};
    for (std::size_t t = 0; t + 1 < std::size(tableStarts); ++t) {
      const std::size_t first = tableStarts[t];
      const std::size_t last = tableStarts[t + 1];
      if (first == last) continue;
      support::Table table{{"bench", "config", "metric", "value", "wall_ms"}};
      for (std::size_t index = first; index < last; ++index) {
        const Row& row = rows[index];
        table.addRow({row.bench, row.config, row.metric, support::formatDouble(row.value, 4),
                      support::formatDouble(row.wallMs, 2)});
      }
      std::cout << (first == 0 ? "" : "\n");
      rtlock::bench::emit(table, flags.flag("csv"));
    }
    std::cout << "\n" << rows.size() << " metric rows in "
              << support::formatDouble(elapsedMs(start), 0) << " ms\n";

    if (flags.flag("json")) {
      std::ofstream file{outPath};
      if (!file) throw support::Error("cannot open " + outPath + " for writing");
      writeJson(file, rows, seed);
      std::cout << "wrote " << outPath << "\n";
    }

    if (!checkPath.empty() && checkAgainstBaseline(rows, checkPath, full) != 0) {
      throw support::Error("quality gate failed against " + checkPath);
    }
  });
}
