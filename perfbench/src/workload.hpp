// What every workload shares: run options, the result it hands to main, and
// the builders for the end-to-end and per-layer metric sets (the same names
// on every workload, so runs compare metric by metric).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "host.hpp"
#include "metrics.hpp"
#include "trace.hpp"

namespace perfbench {

struct RunOptions {
  RunIdentity run;
  std::string workDir;   // scratch directory for journals (inside the checkout)
  std::string traceOut;  // traced runs write their spans here (one file per workload)
};

struct WorkloadResult {
  bool correct = true;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> endToEnd;
  std::vector<Metric> perLayer;  // traced runs only
  rtlock::support::JsonValue info{rtlock::support::JsonObject{}};
};

[[nodiscard]] WorkloadResult runEvalWorkload(const RunOptions& options);
[[nodiscard]] WorkloadResult runServeWorkload(const RunOptions& options);

/// Timed phase measured as passes: whole passes of the same size run until
/// their summed wall time reaches the run's seconds.  Ops are recorded pass
/// by pass, so pass p owns ops [p * n, (p + 1) * n).
struct TimedPhase {
  std::vector<double> setupSeconds;
  std::vector<double> passWallSeconds;
  std::vector<double> passCpuSeconds;
  double peakRssMb = 0.0;
};

/// setup_s (median over setups); wall_s, cpu_s, throughput_ops, p50_ms and
/// tail_ms (each the median over passes of the pass's value); peak_rss_mb.
/// Medians over passes keep a burst of host noise in one pass from moving
/// the run's numbers.
[[nodiscard]] std::vector<Metric> endToEndMetrics(const TimedPhase& phase, const OpTally& ops);

/// Layer numbers that are not span self times.
struct LayerExtras {
  double sessionHitRatio = 0.0;
  double rowsHarvested = 0.0;
  double rowsUsedRatio = 0.0;
  double campaignCells = 0.0;
  double campaignIdleMs = 0.0;
  double mlCvMs = 0.0;
  double transportMs = 0.0;
  double coverage = 0.0;      // attributed share of the replayed op time
  double unattributedMs = 0.0;
  double overheadPercent = 0.0;
};

/// The fixed per-layer metric set, from span times plus the extras.
[[nodiscard]] std::vector<Metric> perLayerMetrics(const std::map<std::string, LayerTime>& layers,
                                                  const LayerExtras& extras);

/// Tail percentile, ops per pass, passes, and each pass's and setup's time,
/// for the informational output.
[[nodiscard]] rtlock::support::JsonValue tailInfo(const TimedPhase& phase, const OpTally& ops);

}  // namespace perfbench
