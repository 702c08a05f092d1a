// The benchmark's own arithmetic: latency percentiles, medians, metric-name
// validation, op accounting and the result line.  Everything here is pure
// and covered by tests/selftest.cpp.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "support/json.hpp"

namespace perfbench {

/// Latency recorded for a failed op: a failure counts as missing every
/// latency limit, so it sorts above every real sample.  Printed values that
/// land on it read as this many milliseconds.
inline constexpr double kFailedLatencyMs = 1e9;

/// Nearest-rank percentile of an ascending-sorted sample: the value at rank
/// ceil(p/100 * n) (1-based).  p in (0, 100]; the sample must be non-empty.
[[nodiscard]] double percentileSorted(const std::vector<double>& sorted, double percentile);

/// Number of samples ranked strictly beyond the nearest-rank percentile.
[[nodiscard]] std::size_t samplesBeyond(std::size_t n, double percentile);

[[nodiscard]] double median(std::vector<double> values);

/// The highest percentile among 99.9, 99, 90 and 50 that has at least 10
/// samples beyond it (p99 needs 1000 samples, p90 100); below 20 samples the
/// maximum (percentile 100).
struct Tail {
  double percentile = 100.0;
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] Tail tailOf(std::vector<double> values);

/// Metric names: 1-64 characters of [A-Za-z0-9_.-], starting with a letter
/// or digit.
[[nodiscard]] bool validMetricName(std::string_view name);

/// Ops attempted, ops failed and the latency of each op.  A failed op
/// (error cell, non-200 answer, refused or torn connection, output mismatch)
/// records kFailedLatencyMs instead of its measured time.
class OpTally {
 public:
  void ok(double latencyMs);
  void failed();
  /// Turns an op recorded as ok into a failure (an output check failed
  /// after the op was timed).  `index` is the op's position in record order.
  void markFailed(std::size_t index);

  [[nodiscard]] std::size_t attempted() const noexcept { return latencies_.size(); }
  [[nodiscard]] std::size_t failedCount() const noexcept { return failed_; }
  [[nodiscard]] std::size_t okCount() const noexcept { return attempted() - failed_; }
  [[nodiscard]] const std::vector<double>& latencies() const noexcept { return latencies_; }
  [[nodiscard]] bool failedAt(std::size_t index) const { return failedFlags_.at(index); }

 private:
  std::vector<double> latencies_;
  std::vector<bool> failedFlags_;
  std::size_t failed_ = 0;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
/// Throws support::Error on an invalid or duplicated metric name.
[[nodiscard]] std::string resultLine(bool correct, std::size_t attempted, std::size_t failed,
                                     const std::vector<Metric>& metrics);

/// Metrics as a JSON object {name: {"value", "unit"}} (also used for the
/// informational lines).
[[nodiscard]] rtlock::support::JsonValue metricsObject(const std::vector<Metric>& metrics);

}  // namespace perfbench
