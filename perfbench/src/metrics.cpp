#include "metrics.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "support/diagnostics.hpp"

namespace perfbench {

std::size_t samplesBeyond(std::size_t n, double percentile) {
  // The epsilon keeps exact ranks exact: 99.9 / 100 * 10000 is 9990.000000000002.
  const auto rank =
      static_cast<std::size_t>(std::ceil(percentile * static_cast<double>(n) / 100.0 - 1e-9));
  return n - std::min(n, rank);
}

double percentileSorted(const std::vector<double>& sorted, double percentile) {
  if (sorted.empty()) throw rtlock::support::Error{"percentile of an empty sample"};
  const std::size_t n = sorted.size();
  const std::size_t rank = std::max<std::size_t>(1, n - samplesBeyond(n, percentile));
  return sorted[rank - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) throw rtlock::support::Error{"median of an empty sample"};
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

Tail tailOf(std::vector<double> values) {
  if (values.empty()) throw rtlock::support::Error{"tail of an empty sample"};
  std::sort(values.begin(), values.end());
  Tail tail;
  tail.n = values.size();
  for (const double percentile : {99.9, 99.0, 90.0, 50.0}) {
    const std::size_t beyond = samplesBeyond(tail.n, percentile);
    if (beyond >= 10) {
      tail.percentile = percentile;
      tail.beyond = beyond;
      tail.value = percentileSorted(values, percentile);
      return tail;
    }
  }
  tail.value = values.back();
  return tail;
}

bool validMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(),
                     [&](char c) { return alnum(c) || c == '_' || c == '.' || c == '-'; });
}

void OpTally::ok(double latencyMs) {
  latencies_.push_back(latencyMs);
  failedFlags_.push_back(false);
}

void OpTally::failed() {
  latencies_.push_back(kFailedLatencyMs);
  failedFlags_.push_back(true);
  ++failed_;
}

void OpTally::markFailed(std::size_t index) {
  if (failedFlags_.at(index)) return;
  failedFlags_[index] = true;
  latencies_[index] = kFailedLatencyMs;
  ++failed_;
}

rtlock::support::JsonValue metricsObject(const std::vector<Metric>& metrics) {
  rtlock::support::JsonValue object{rtlock::support::JsonObject{}};
  std::set<std::string, std::less<>> seen;
  for (const Metric& metric : metrics) {
    if (!validMetricName(metric.name) || !seen.insert(metric.name).second) {
      throw rtlock::support::Error{"invalid or duplicated metric name '" + metric.name + "'"};
    }
    rtlock::support::JsonValue entry;
    entry.set("value", metric.value);
    entry.set("unit", metric.unit);
    object.set(metric.name, std::move(entry));
  }
  return object;
}

std::string resultLine(bool correct, std::size_t attempted, std::size_t failed,
                       const std::vector<Metric>& metrics) {
  rtlock::support::JsonValue line;
  line.set("correct", correct);
  line.set("attempted", static_cast<std::uint64_t>(attempted));
  line.set("failed", static_cast<std::uint64_t>(failed));
  line.set("metrics", metricsObject(metrics));
  return line.dumpLine();
}

}  // namespace perfbench
