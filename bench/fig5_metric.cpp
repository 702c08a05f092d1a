// Fig. 5 — Security-metric search space and evolution (Sec. 4.4).
//
// (a) The M^g_sec surface over the ODT magnitude grid of the paper's example
//     design: |ODT[(+,-)]| = 25, |ODT[(<<,>>)]| = 10.
// (b) Metric evolution per consumed key bit for ERA, HRA and the Greedy
//     variant on that design.  Expected shape: ERA jumps along the surface
//     edges (few large steps), Greedy rides the steepest path and reaches 100
//     with the fewest bits (35), HRA needs more bits because of its random
//     pair-mode steps but stays monotone.
//
// Flags: --grid-step=N surface step in [1, 25] (default 5); --budget=N key
// bits in [1, 4096] (default 60).
#include <iostream>

#include "common.hpp"
#include "core/metric.hpp"
#include "figures.hpp"

namespace {

using namespace rtlock;

/// Largest --budget (key bits).  Not the design's 35 operations: a lock
/// adds a dummy operation that later locks may wrap again, so the paper's
/// 60-bit budget already exceeds them; the table prints one row per bit.
constexpr std::uint64_t kMaxBudgetBits = 4096;

void surface(bool csv, int step) {
  std::cout << "--- Fig. 5a: M^g_sec surface over (|ODT[(+,-)]|, |ODT[(<<,>>)]|) ---\n";
  const std::vector<int> initial{25, 10};
  std::vector<std::string> header{"odt_add_sub \\ odt_shl_shr"};
  for (int y = 10; y >= 0; y -= step) header.push_back(std::to_string(y));
  support::Table table{header};
  for (int x = 25; x >= 0; x -= step) {
    std::vector<std::string> row{std::to_string(x)};
    for (int y = 10; y >= 0; y -= step) {
      const std::vector<int> current{x, y};
      row.push_back(support::formatDouble(lock::globalSecurityMetric(initial, current), 1));
    }
    table.addRow(std::move(row));
  }
  rtlock::bench::emit(table, csv);
  std::cout << '\n';
}

void evolution(bool csv, std::uint64_t seed, int budget, int threads) {
  std::cout << "--- Fig. 5b: metric evolution per key bit ---\n";
  const std::vector<bench::Fig5Run> runs = bench::evolveFig5(seed, budget, threads);

  support::Table table{{"key bits", "ERA", "HRA", "Greedy"}};
  int maxBits = 0;
  for (const auto& run : runs) {
    if (!run.report.metricTrace.empty()) {
      maxBits = std::max(maxBits, run.report.metricTrace.back().first);
    }
  }
  const auto metricAt = [](const lock::AlgorithmReport& report, int bits) {
    double metric = 0.0;
    for (const auto& [usedBits, value] : report.metricTrace) {
      if (usedBits > bits) break;
      metric = value;
    }
    return metric;
  };
  for (int bits = 0; bits <= maxBits; ++bits) {
    table.addRow({std::to_string(bits), support::formatDouble(metricAt(runs[0].report, bits), 2),
                  support::formatDouble(metricAt(runs[1].report, bits), 2),
                  support::formatDouble(metricAt(runs[2].report, bits), 2)});
  }
  rtlock::bench::emit(table, csv);

  std::cout << '\n';
  support::Table summary{{"algorithm", "bits used", "bits to M=100", "final M^g", "final M^r"}};
  for (const auto& run : runs) {
    int bitsToSecure = -1;
    for (const auto& [bits, metric] : run.report.metricTrace) {
      if (metric >= 100.0) {
        bitsToSecure = bits;
        break;
      }
    }
    summary.addRow({std::string{lock::algorithmName(run.algorithm)},
                    std::to_string(run.report.bitsUsed),
                    bitsToSecure < 0 ? "not reached" : std::to_string(bitsToSecure),
                    support::formatDouble(run.report.finalGlobalMetric, 2),
                    support::formatDouble(run.report.finalRestrictedMetric, 2)});
  }
  rtlock::bench::emit(summary, csv);
}

}  // namespace

int main(int argc, char** argv) {
  return rtlock::bench::runBench([&] {
    // The step walks the surface's x range [0, 25].
    const service::Schema schema{
        "fig5_metric", "",
        {bench::kSeedField, bench::kCsvField, bench::countField("grid-step", "5", 25),
         bench::countField("budget", "60", kMaxBudgetBits), bench::kThreadsField}};
    const service::FieldValues flags = service::decodeFlags(schema, {argv + 1, argv + argc});
    const bool csv = flags.flag("csv");

    rtlock::bench::banner("Fig. 5 — metric surface and evolution",
                          "Sisejkovic et al., DAC'22, Fig. 5a/5b",
                          "monotone surface; Greedy secures at 35 bits, HRA later, ERA in "
                          "two coarse jumps");
    surface(csv, flags.integer("grid-step"));
    evolution(csv, flags.count("seed"), flags.integer("budget"), flags.integer("threads"));
  });
}
