// Self-tests for the benchmark's own arithmetic: the tail-percentile rule,
// span self time with nested and cross-thread children, metric-name
// validation, and the counting of failed and refused ops.
//
//   python3 perfbench/run.py --selftest     (exit 0 = all passed)
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <iostream>
#include <string>
#include <thread>

#include "loopback.hpp"
#include "metrics.hpp"
#include "support/json.hpp"
#include "trace.hpp"

namespace {

int gFailures = 0;

void check(bool condition, const std::string& what) {
  if (!condition) {
    ++gFailures;
    std::cerr << "FAIL: " << what << '\n';
  }
}

std::vector<double> oneTo(std::size_t n) {
  std::vector<double> values;
  for (std::size_t i = 1; i <= n; ++i) values.push_back(static_cast<double>(i));
  return values;
}

void testPercentileRule() {
  using perfbench::tailOf;
  check(perfbench::percentileSorted(oneTo(100), 50.0) == 50.0, "p50 of 1..100 is 50");
  check(perfbench::percentileSorted(oneTo(100), 90.0) == 90.0, "p90 of 1..100 is 90");
  check(perfbench::percentileSorted(oneTo(1000), 99.0) == 990.0, "p99 of 1..1000 is 990");
  check(perfbench::percentileSorted(oneTo(1), 99.0) == 1.0, "percentile of one sample");

  const perfbench::Tail t10000 = tailOf(oneTo(10000));
  check(t10000.percentile == 99.9 && t10000.beyond == 10 && t10000.value == 9990.0,
        "10000 samples report p99.9 with 10 beyond");
  const perfbench::Tail t1000 = tailOf(oneTo(1000));
  check(t1000.percentile == 99.0 && t1000.beyond == 10 && t1000.n == 1000, "1000 samples: p99");
  const perfbench::Tail t999 = tailOf(oneTo(999));
  check(t999.percentile == 90.0 && t999.beyond == 99, "999 samples fall back to p90");
  const perfbench::Tail t100 = tailOf(oneTo(100));
  check(t100.percentile == 90.0 && t100.beyond == 10 && t100.value == 90.0, "100 samples: p90");
  const perfbench::Tail t99 = tailOf(oneTo(99));
  check(t99.percentile == 50.0 && t99.beyond == 49, "99 samples fall back to p50");
  const perfbench::Tail t19 = tailOf(oneTo(19));
  check(t19.percentile == 100.0 && t19.value == 19.0 && t19.beyond == 0,
        "under 20 samples the tail is the maximum");
  std::vector<double> shuffled{5, 1, 4, 2, 3};
  check(perfbench::median(shuffled) == 3.0, "median of an unsorted odd sample");
  check(perfbench::median({4, 1, 3, 2}) == 2.5, "median of an even sample");
}

perfbench::Span span(const char* name, std::int64_t start, std::int64_t end, std::uint64_t id,
                     std::uint64_t parent, std::uint32_t thread = 1) {
  perfbench::Span s;
  s.name = name;
  s.startNs = start * 1'000'000;
  s.endNs = end * 1'000'000;
  s.id = id;
  s.parent = parent;
  s.thread = thread;
  return s;
}

void testSelfTime() {
  // root [0,100] > a [10,40] > leaf [20,30]: self times 70, 20, 10.
  const auto nested = perfbench::layerTimes(
      {span("root", 0, 100, 1, 0), span("a", 10, 40, 2, 1), span("leaf", 20, 30, 3, 2)});
  check(nested.at("root").selfMs == 70.0 && nested.at("root").totalMs == 100.0, "nested root self");
  check(nested.at("a").selfMs == 20.0, "nested middle self");
  check(nested.at("leaf").selfMs == 10.0, "leaf self equals its duration");

  // Children on two other threads overlap each other ([10,60] and [50,80]):
  // the union covers 70, so the parent keeps 30; a child running past the
  // parent's end ([90,120]) only covers the part inside it.
  const auto crossThread = perfbench::layerTimes(
      {span("root", 0, 100, 1, 0, 1), span("b", 10, 60, 2, 1, 2), span("c", 50, 80, 3, 1, 3)});
  check(crossThread.at("root").selfMs == 30.0, "cross-thread children counted once");
  const auto clipped =
      perfbench::layerTimes({span("root", 0, 100, 1, 0), span("late", 90, 120, 2, 1)});
  check(clipped.at("root").selfMs == 90.0 && clipped.at("late").selfMs == 30.0,
        "children are clipped to the parent interval");

  // The recorder: a span opened on another thread under an explicit parent.
  perfbench::Tracer tracer;
  std::uint64_t rootId = 0;
  {
    perfbench::ScopedSpan root{&tracer, "root", 7};
    rootId = root.id();
    std::thread worker{[&] {
      perfbench::ScopedSpan child{&tracer, "child", 7, rootId};
      perfbench::ScopedSpan grandchild{&tracer, "grandchild", 7};
      grandchild.fail();
    }};
    worker.join();
  }
  const std::vector<perfbench::Span> spans = tracer.spans();
  check(spans.size() == 3, "three spans recorded");
  const auto times = perfbench::layerTimes(spans);
  check(times.at("grandchild").errors == 1 && times.at("child").errors == 0, "error flags kept");
  for (const perfbench::Span& s : spans) {
    if (std::string{s.name} == "child") check(s.parent == rootId, "explicit cross-thread parent");
    if (std::string{s.name} == "grandchild") {
      check(s.parent != rootId && s.parent != 0, "implicit parent is the thread's open span");
    }
  }
  check(times.at("root").selfMs <= times.at("root").totalMs - times.at("child").totalMs + 1e-9,
        "cross-thread child time is removed from the root");
}

void testMetricNames() {
  for (const char* good : {"p50_ms", "session.build_ms", "a-b", "0x", "Z.9_-"}) {
    check(perfbench::validMetricName(good), std::string{"valid name "} + good);
  }
  const std::string tooLong(65, 'a');
  for (const std::string& bad : {std::string{}, std::string{".x"}, std::string{"_x"},
                                std::string{"-x"}, std::string{"a b"}, std::string{"a/b"},
                                std::string{"caf\xc3\xa9"}, std::string{"a\"b"}, tooLong}) {
    check(!perfbench::validMetricName(bad), "invalid name '" + bad + "'");
  }
  check(perfbench::validMetricName(std::string(64, 'a')), "64 characters are allowed");
  bool threw = false;
  try {
    (void)perfbench::resultLine(true, 1, 0, {{"x", 1.0, "s"}, {"x", 2.0, "s"}});
  } catch (const std::exception&) {
    threw = true;
  }
  check(threw, "duplicated metric names are refused");
  threw = false;
  try {
    (void)perfbench::resultLine(true, 1, 0, {{"bad name", 1.0, "s"}});
  } catch (const std::exception&) {
    threw = true;
  }
  check(threw, "invalid metric names are refused");
}

void testOpCounting() {
  perfbench::OpTally ops;
  ops.ok(1.0);
  ops.failed();
  ops.ok(3.0);
  ops.ok(4.0);
  ops.markFailed(2);  // a check failed after the op was timed
  ops.markFailed(2);  // counted once
  ops.markFailed(1);  // already failed
  check(ops.attempted() == 4 && ops.failedCount() == 2 && ops.okCount() == 2, "tally counts");
  check(ops.latencies()[1] == perfbench::kFailedLatencyMs &&
            ops.latencies()[2] == perfbench::kFailedLatencyMs && ops.latencies()[3] == 4.0,
        "failed ops carry the failure latency");
  std::vector<double> sorted = ops.latencies();
  std::sort(sorted.begin(), sorted.end());
  check(perfbench::percentileSorted(sorted, 50.0) == 4.0,
        "failures sort above every real latency");

  // A refused connection: bind a port, close it, connect to it.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t length = sizeof(address);
  ::bind(fd, reinterpret_cast<const sockaddr*>(&address), sizeof(address));
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&address), &length);
  ::close(fd);
  std::string buffer;
  const perfbench::Exchange refused =
      perfbench::exchange(ntohs(address.sin_port), "GET /healthz HTTP/1.1\r\n\r\n", buffer);
  check(!refused.transportOk, "a refused connection is a transport failure");

  const rtlock::support::JsonValue line = rtlock::support::parseJson(
      perfbench::resultLine(ops.failedCount() == 0, ops.attempted(), ops.failedCount(),
                            {{"p50_ms", 1.25, "ms"}}));
  check(line.asObject().size() == 4 && !line.at("correct").asBool() &&
            line.at("attempted").asInt() == 4 && line.at("failed").asInt() == 2 &&
            line.at("metrics").at("p50_ms").at("value").asDouble() == 1.25 &&
            line.at("metrics").at("p50_ms").at("unit").asString() == "ms",
        "result line carries exactly correct/attempted/failed/metrics");
}

}  // namespace

int main() {
  testPercentileRule();
  testSelfTime();
  testMetricNames();
  testOpCounting();
  if (gFailures > 0) {
    std::cerr << gFailures << " self-test check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench self-tests passed\n";
  return 0;
}
