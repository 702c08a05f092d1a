#include "workload.hpp"

#include <algorithm>

#include "support/diagnostics.hpp"

namespace perfbench {

namespace {

/// Spans whose self time, calls and errors are reported (ml.automl's
/// cv/refit split and session.hit_ratio come from LayerExtras).
constexpr const char* kLayerSpans[] = {
    "session.build", "session.hit",    "core.lock",      "verilog.write",  "attack.extract",
    "core.relock",   "attack.harvest", "core.undo",      "ml.automl",      "ml.predict",
    "campaign.journal", "http.parse",  "service.decode", "service.lock",   "service.encode"};

}  // namespace

namespace {

/// Latencies of pass `pass`, ascending.
std::vector<double> passLatencies(const TimedPhase& phase, const OpTally& ops, std::size_t pass) {
  const std::size_t perPass = ops.attempted() / phase.passWallSeconds.size();
  const auto first = ops.latencies().begin() + static_cast<std::ptrdiff_t>(pass * perPass);
  std::vector<double> latencies(first, first + static_cast<std::ptrdiff_t>(perPass));
  std::sort(latencies.begin(), latencies.end());
  return latencies;
}

}  // namespace

std::vector<Metric> endToEndMetrics(const TimedPhase& phase, const OpTally& ops) {
  const std::size_t passes = phase.passWallSeconds.size();
  if (passes == 0 || ops.attempted() % passes != 0) {
    throw rtlock::support::Error{"passes must hold the same number of ops"};
  }
  const std::size_t perPass = ops.attempted() / passes;
  std::vector<double> throughputs;
  std::vector<double> p50s;
  std::vector<double> tails;
  for (std::size_t pass = 0; pass < passes; ++pass) {
    std::size_t ok = 0;
    for (std::size_t i = pass * perPass; i < (pass + 1) * perPass; ++i) ok += ops.failedAt(i) ? 0 : 1;
    throughputs.push_back(static_cast<double>(ok) / phase.passWallSeconds[pass]);
    const std::vector<double> latencies = passLatencies(phase, ops, pass);
    p50s.push_back(percentileSorted(latencies, 50.0));
    tails.push_back(tailOf(latencies).value);
  }
  return {
      {"setup_s", median(phase.setupSeconds), "s"},
      {"wall_s", median(phase.passWallSeconds), "s"},
      {"cpu_s", median(phase.passCpuSeconds), "s"},
      {"peak_rss_mb", phase.peakRssMb, "MiB"},
      {"throughput_ops", median(throughputs), "1/s"},
      {"p50_ms", median(p50s), "ms"},
      {"tail_ms", median(tails), "ms"},
  };
}

std::vector<Metric> perLayerMetrics(const std::map<std::string, LayerTime>& layers,
                                    const LayerExtras& extras) {
  const auto layer = [&](const char* name) {
    const auto found = layers.find(name);
    return found == layers.end() ? LayerTime{} : found->second;
  };
  const double automlMs = layer("ml.automl").selfMs;
  std::vector<Metric> metrics;
  for (const char* name : kLayerSpans) {
    metrics.push_back({std::string{name} + "_ms", layer(name).selfMs, "ms"});
  }
  metrics.push_back({"ml.cv_ms", extras.mlCvMs, "ms"});
  metrics.push_back({"ml.refit_ms", automlMs - extras.mlCvMs, "ms"});
  metrics.push_back({"campaign.idle_ms", extras.campaignIdleMs, "ms"});
  metrics.push_back({"server.transport_ms", extras.transportMs, "ms"});
  metrics.push_back({"session.builds", static_cast<double>(layer("session.build").calls), "count"});
  metrics.push_back({"session.hit_ratio", extras.sessionHitRatio, "ratio"});
  metrics.push_back({"attack.rows_harvested", extras.rowsHarvested, "count"});
  metrics.push_back({"ml.rows_used_ratio", extras.rowsUsedRatio, "ratio"});
  metrics.push_back({"campaign.cells", extras.campaignCells, "count"});
  for (const char* name : kLayerSpans) {
    metrics.push_back({std::string{name} + ".calls", static_cast<double>(layer(name).calls), "count"});
    metrics.push_back({std::string{name} + ".errors", static_cast<double>(layer(name).errors), "count"});
  }
  metrics.push_back({"trace.coverage", extras.coverage, "ratio"});
  metrics.push_back({"trace.unattributed_ms", extras.unattributedMs, "ms"});
  metrics.push_back({"trace.overhead_pct", extras.overheadPercent, "%"});
  return metrics;
}

rtlock::support::JsonValue tailInfo(const TimedPhase& phase, const OpTally& ops) {
  const Tail tail = tailOf(passLatencies(phase, ops, 0));
  rtlock::support::JsonValue info;
  info.set("percentile", tail.percentile);
  info.set("n_per_pass", static_cast<std::uint64_t>(tail.n));
  info.set("beyond_per_pass", static_cast<std::uint64_t>(tail.beyond));
  info.set("passes", static_cast<std::uint64_t>(phase.passWallSeconds.size()));
  const auto array = [](const std::vector<double>& values) {
    rtlock::support::JsonArray items(values.begin(), values.end());
    return rtlock::support::JsonValue{std::move(items)};
  };
  info.set("pass_wall_s", array(phase.passWallSeconds));
  info.set("setup_each_s", array(phase.setupSeconds));
  return info;
}

}  // namespace perfbench
