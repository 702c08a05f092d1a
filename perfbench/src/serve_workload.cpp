// serve_lock: an in-process service::Server with 2 workers, driven over
// loopback TCP by a closed loop of 2 client connections, one request per
// connection, in a fixed 3:1 warm:cold mix of `POST /v1/lock`.
//
//  * warm: a registry design that warm-up put in the session cache, with
//    the algorithm and seed rotating;
//  * cold: a netlist freshly generated by designs::makeRandomModule (1000
//    operations, slices off) and emitted by verilog::writeModule, so its
//    session is built on arrival.
//
// Timed run: setup (design emission, the first pass's cold netlists, server
// start and an HTTP warm-up request per registry design) is repeated
// kSetupRepeats times; then passes of kPassRequests requests run until their
// summed wall time reaches --seconds.  Latency runs from connect to the last
// byte, measured at the client.  Requests are a pure function of (seed,
// pass, position), so the checks and the replay rebuild them instead of
// keeping every netlist in memory.
//
// Checks (untimed): status 200 and X-Rtlock-Cache hit for warm / miss for
// cold; every body equal (length + 64-bit digest) to Dispatcher::handle of the
// same request in-process; the server's cache shows exactly one miss per
// cold request plus one per warm-up design.
//
// Traced run: every request is replayed in-process through the layer chain
// (RequestParser, parseJson, runLock, lockResponseDocument +
// serializeResponse), plus lockWithAlgorithm and writeDesign on a clone of
// the session's design; the replayed body and locked Verilog must equal
// what the socket returned.
#include <atomic>
#include <thread>

#include "core/algorithms.hpp"
#include "designs/random.hpp"
#include "designs/registry.hpp"
#include "loopback.hpp"
#include "service/dispatch.hpp"
#include "service/server.hpp"
#include "support/strings.hpp"
#include "support/task_pool.hpp"
#include "verilog/writer.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using rtlock::support::JsonValue;

/// Setups per run; setup_s is their median.
constexpr int kSetupRepeats = 7;
namespace service = rtlock::service;
namespace lock = rtlock::lock;

constexpr int kServerThreads = 2;
constexpr int kClients = 2;
constexpr std::size_t kPassRequests = 400;  // 300 warm + 100 cold
constexpr std::size_t kColdPerPass = kPassRequests / 4;
constexpr std::size_t kWarmPerPass = kPassRequests - kColdPerPass;
constexpr std::size_t kCacheBytes = 64ull * 1024 * 1024;
constexpr int kWarmSeeds = 8;
constexpr const char* kAlgorithmNames[] = {"serial", "hra", "era"};

/// One request of the mix.  Warm requests are identified by (design,
/// algorithm, seed), so identical ones share their expected body.
struct RequestSpec {
  bool cold = false;
  std::size_t index = 0;  // warm: registry design; cold: cold ordinal
  std::size_t algorithm = 0;
  std::uint64_t seed = 0;

  [[nodiscard]] std::string key() const {
    return (cold ? "c" : "w") + std::to_string(index) + ":" + std::to_string(algorithm) + ":" +
           std::to_string(seed);
  }
};

std::string lockBody(const std::string& escapedSource, std::size_t algorithm, std::uint64_t seed) {
  return std::string{"{\"source\":"} + escapedSource + ",\"algo\":\"" +
         kAlgorithmNames[algorithm] + "\",\"seed\":" + std::to_string(seed) + "}";
}

std::string httpPost(const std::string& body) {
  return "POST /v1/lock HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

/// The request mix of a run: registry designs emitted once, cold netlists
/// generated on demand from (seed, cold ordinal).
class RequestPlan {
 public:
  RequestPlan(std::uint64_t seed, Tracer* tracer) : coldRoot_(rtlock::support::Rng{seed}.fork()) {
    for (const rtlock::designs::BenchmarkInfo& info : rtlock::designs::allBenchmarks()) {
      const rtlock::rtl::Module module = info.make();
      ScopedSpan span{tracer, "verilog.write", 0};
      warmSources_.push_back(rtlock::verilog::writeModule(module));
      span.close();
      warmEscaped_.push_back(JsonValue{warmSources_.back()}.dumpLine());
    }
  }

  [[nodiscard]] std::size_t warmDesigns() const noexcept { return warmSources_.size(); }
  [[nodiscard]] const std::string& warmSource(std::size_t d) const { return warmSources_[d]; }

  [[nodiscard]] RequestSpec spec(std::size_t pass, std::size_t position) const {
    RequestSpec spec;
    if (position % 4 == 3) {
      spec.cold = true;
      spec.index = pass * kColdPerPass + position / 4;
      spec.algorithm = spec.index % 3;
      spec.seed = 1 + spec.index % kWarmSeeds;
      return spec;
    }
    const std::size_t warm = pass * kWarmPerPass + position - (position + 1) / 4;
    spec.index = warm % warmSources_.size();
    spec.algorithm = (warm / warmSources_.size()) % 3;
    spec.seed = 1 + (warm / (warmSources_.size() * 3)) % kWarmSeeds;
    return spec;
  }

  /// Cold netlist text (Verilog) for a cold ordinal.
  [[nodiscard]] std::string coldSource(std::size_t ordinal) const {
    rtlock::support::Rng rng = coldRoot_.substream(ordinal);
    rtlock::designs::RandomModuleParams params;
    params.operations = 1000;
    params.useSlices = false;  // see README: writeModule rejects sliced random modules
    const rtlock::rtl::Module module = rtlock::designs::makeRandomModule(rng, params);
    return rtlock::verilog::writeModule(module);
  }

  [[nodiscard]] std::string body(const RequestSpec& spec) const {
    if (spec.cold) {
      return lockBody(JsonValue{coldSource(spec.index)}.dumpLine(), spec.algorithm, spec.seed);
    }
    return lockBody(warmEscaped_[spec.index], spec.algorithm, spec.seed);
  }

 private:
  rtlock::support::Rng coldRoot_;
  std::vector<std::string> warmSources_;
  std::vector<std::string> warmEscaped_;
};

struct ServerHandle {
  std::unique_ptr<service::Server> server;
  std::thread thread;

  ServerHandle() = default;
  ServerHandle(ServerHandle&&) = default;
  ServerHandle& operator=(ServerHandle&& other) noexcept {
    stop();
    server = std::move(other.server);
    thread = std::move(other.thread);
    return *this;
  }
  ~ServerHandle() { stop(); }

  void stop() {
    if (server == nullptr) return;
    server->requestStop();
    if (thread.joinable()) thread.join();
    server.reset();
  }
};

ServerHandle startServer() {
  service::ServeOptions options;
  options.port = 0;
  options.threads = kServerThreads;
  options.cacheBytes = kCacheBytes;
  ServerHandle handle;
  handle.server = std::make_unique<service::Server>(options);
  handle.thread = std::thread{[server = handle.server.get()] { (void)server->run(); }};
  return handle;
}

/// Parses a raw request the way the server does.
service::HttpRequest parseRaw(const std::string& raw) {
  service::RequestParser parser;
  if (parser.feed(raw) != service::RequestParser::State::Complete) {
    throw rtlock::support::Error{"benchmark request did not parse"};
  }
  return parser.request();
}

struct Expected {
  std::uint64_t hash = 0;
  std::size_t length = 0;
  int status = 0;
};

struct ReplayOutcome {
  bool bodyMatches = false;
  bool verilogMatches = false;
  double chainMs = 0.0;  // parse + decode + lock + encode
};

/// One request through the layer chain, spans around each call.
ReplayOutcome replayRequest(service::SessionCache& cache, const std::string& raw,
                            const Exchange& seen, Tracer* tracer, std::uint64_t op) {
  ReplayOutcome outcome;
  ScopedSpan root{tracer, "serve.request", op, 0};
  service::HttpRequest request;
  ScopedSpan parse{tracer, "http.parse", op};
  request = parseRaw(raw);
  parse.close();

  ScopedSpan decode{tracer, "service.decode", op};
  const JsonValue body = rtlock::support::parseJson(request.body);
  service::LockRequest lockRequest;
  lockRequest.source = body.at("source").asString();
  lockRequest.algorithm = service::algorithmFromName(body.at("algo").asString());
  lockRequest.seed = static_cast<std::uint64_t>(body.at("seed").asInt());
  decode.close();

  ScopedSpan lockSpan{tracer, "service.lock", op};
  service::SessionPtr session;
  {
    ScopedSpan fetch{tracer, "session.hit", op};
    const service::SessionCache::FetchResult fetched = cache.fetch(lockRequest.source, lockRequest.session);
    if (!fetched.hit) fetch.rename("session.build");
    session = fetched.session;
  }
  const service::LockResponse response = service::runLock(cache, lockRequest);
  lockSpan.close();

  ScopedSpan encode{tracer, "service.encode", op};
  service::HttpResponse http;
  http.body = service::lockResponseDocument(response).dump();
  http.extraHeaders.emplace_back("X-Rtlock-Cache", response.cacheHit ? "hit" : "miss");
  http.extraHeaders.emplace_back("X-Rtlock-Design-Hash", response.designHash);
  const std::string wire = service::serializeResponse(http);
  encode.close();
  outcome.chainMs =
      static_cast<double>(parse.elapsedNs() + decode.elapsedNs() + lockSpan.elapsedNs() +
                          encode.elapsedNs()) /
      1e6;
  outcome.bodyMatches = bodyDigest(http.body) == seen.bodyHash &&
                        http.body.size() == seen.bodyLength && wire.ends_with(http.body);

  // The lock and the Verilog emission runLock composes, on a clone.
  rtlock::rtl::Design design = session->cloneDesign();
  const rtlock::support::Rng rootRng{lockRequest.seed};
  for (std::size_t i = 0; i < design.moduleCount(); ++i) {
    lock::LockEngine engine{design.module(i), lock::PairTable::fixed()};
    if (engine.initialLockableOps() == 0) continue;
    rtlock::support::Rng rng = rootRng.substream(i);
    ScopedSpan span{tracer, "core.lock", op};
    (void)lock::lockWithAlgorithm(engine, lockRequest.algorithm,
                                  lockRequest.budget.resolve(engine.initialLockableOps()), rng,
                                  lock::ReportDetail::Summary);
  }
  std::string verilog;
  {
    ScopedSpan span{tracer, "verilog.write", op};
    verilog = rtlock::verilog::writeDesign(design);
  }
  outcome.verilogMatches = verilog == response.lockedVerilog;
  if (!outcome.bodyMatches || !outcome.verilogMatches) root.fail();
  return outcome;
}

}  // namespace

WorkloadResult runServeWorkload(const RunOptions& options) {
  std::unique_ptr<Tracer> tracer = options.run.trace ? std::make_unique<Tracer>() : nullptr;
  WorkloadResult result;
  TimedPhase phase;

  // ---- setup, repeated; the last one is kept ----
  std::unique_ptr<RequestPlan> plan;
  ServerHandle server;
  std::vector<std::string> passRequests;
  const auto preparePass = [&](std::size_t pass) {
    passRequests.clear();
    for (std::size_t j = 0; j < kPassRequests; ++j) {
      passRequests.push_back(httpPost(plan->body(plan->spec(pass, j))));
    }
  };
  std::string scratch;
  std::size_t warmupFailures = 0;
  for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
    server.stop();
    const std::int64_t start = nowNs();
    plan = std::make_unique<RequestPlan>(options.run.seed,
                                         repeat + 1 == kSetupRepeats ? tracer.get() : nullptr);
    preparePass(0);
    server = startServer();
    warmupFailures = 0;
    for (std::size_t d = 0; d < plan->warmDesigns(); ++d) {
      const Exchange warm =
          exchange(server.server->port(),
                   httpPost(lockBody(JsonValue{plan->warmSource(d)}.dumpLine(), /*algorithm=*/2,
                                     /*seed=*/0)),
                   scratch);
      if (!warm.transportOk || warm.status != 200) ++warmupFailures;
    }
    phase.setupSeconds.push_back(static_cast<double>(nowNs() - start) / 1e9);
  }
  if (warmupFailures > 0) throw rtlock::support::Error{"serve warm-up requests failed"};
  const int port = server.server->port();

  // ---- timed passes (closed loop, kClients connections) ----
  std::vector<Exchange> exchanges;
  double timedSeconds = 0.0;
  std::size_t passes = 0;
  while (passes == 0 || timedSeconds < options.run.seconds) {
    if (passes > 0) preparePass(passes);
    std::vector<Exchange> passExchanges(kPassRequests);
    std::atomic<std::size_t> next{0};
    const double cpuStart = processCpuSeconds();
    const std::int64_t start = nowNs();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&] {
        std::string buffer;
        buffer.reserve(1 << 20);
        for (std::size_t i = next++; i < kPassRequests; i = next++) {
          passExchanges[i] = exchange(port, passRequests[i], buffer);
        }
      });
    }
    for (std::thread& client : clients) client.join();
    const double wall = static_cast<double>(nowNs() - start) / 1e9;
    phase.passCpuSeconds.push_back(processCpuSeconds() - cpuStart);
    phase.passWallSeconds.push_back(wall);
    timedSeconds += wall;
    exchanges.insert(exchanges.end(), passExchanges.begin(), passExchanges.end());
    ++passes;
  }
  phase.peakRssMb = peakRssMb();
  passRequests.clear();
  const service::SessionCache::Stats serverCache = server.server->sessionCache().stats();
  server.stop();

  // ---- output checks ----
  std::vector<RequestSpec> specs;
  for (std::size_t i = 0; i < exchanges.size(); ++i) {
    specs.push_back(plan->spec(i / kPassRequests, i % kPassRequests));
  }
  std::map<std::string, std::size_t> firstOfKey;  // distinct request -> first index
  for (std::size_t i = 0; i < specs.size(); ++i) firstOfKey.emplace(specs[i].key(), i);
  std::vector<std::size_t> distinct;
  for (const auto& [key, index] : firstOfKey) distinct.push_back(index);

  service::SessionCache checkCache{kCacheBytes};
  service::Dispatcher checkDispatcher{checkCache};
  for (std::size_t d = 0; d < plan->warmDesigns(); ++d) {
    (void)checkCache.fetch(plan->warmSource(d), service::SessionOptions{});
  }
  rtlock::support::TaskPool checkPool{0};  // untimed: every core
  const std::vector<Expected> expected = checkPool.map(distinct.size(), [&](std::size_t k) {
    const service::HttpRequest request = parseRaw(httpPost(plan->body(specs[distinct[k]])));
    const service::HttpResponse response = checkDispatcher.handle(request);
    Expected entry;
    entry.hash = bodyDigest(response.body);
    entry.length = response.body.size();
    entry.status = response.status;
    return entry;
  });
  std::map<std::string, const Expected*> expectedOf;
  for (std::size_t k = 0; k < distinct.size(); ++k) {
    expectedOf[specs[distinct[k]].key()] = &expected[k];
  }

  OpTally ops;
  std::size_t coldOk = 0;
  std::size_t headerMismatches = 0;
  std::size_t bodyMismatches = 0;
  for (std::size_t i = 0; i < exchanges.size(); ++i) {
    const Exchange& seen = exchanges[i];
    const Expected& want = *expectedOf.at(specs[i].key());
    const bool answered = seen.transportOk && seen.status == 200;
    const bool headerOk = seen.cacheHeader == (specs[i].cold ? "miss" : "hit");
    const bool bodyOk = want.status == 200 && seen.bodyHash == want.hash &&
                        seen.bodyLength == want.length;
    if (answered && specs[i].cold) ++coldOk;
    if (answered && !headerOk) ++headerMismatches;
    if (answered && !bodyOk) ++bodyMismatches;
    if (answered && headerOk && bodyOk) {
      ops.ok(seen.latencyMs);
    } else {
      ops.failed();
    }
  }
  const std::uint64_t expectedMisses = plan->warmDesigns() + coldOk;
  const bool cacheCountersOk = serverCache.misses == expectedMisses;

  // ---- traced replay of every request ----
  if (tracer != nullptr) {
    service::SessionCache replayCache{kCacheBytes};
    for (std::size_t d = 0; d < plan->warmDesigns(); ++d) {
      ScopedSpan span{tracer.get(), "session.build", 0};
      (void)replayCache.fetch(plan->warmSource(d), service::SessionOptions{});
    }
    // Untraced first (its own cache, warmed the same way), then traced: the
    // wall-time difference is the tracing overhead.
    service::SessionCache untracedCache{kCacheBytes};
    for (std::size_t d = 0; d < plan->warmDesigns(); ++d) {
      (void)untracedCache.fetch(plan->warmSource(d), service::SessionOptions{});
    }
    rtlock::support::TaskPool pool{kServerThreads};
    const auto replayAll = [&](service::SessionCache& cache, Tracer* replayTracer) {
      return pool.map(exchanges.size(), [&](std::size_t i) {
        const std::string raw = httpPost(plan->body(specs[i]));
        return replayRequest(cache, raw, exchanges[i], replayTracer, i + 1);
      });
    };
    std::int64_t start = nowNs();
    const std::vector<ReplayOutcome> untraced = replayAll(untracedCache, nullptr);
    const double untracedWall = static_cast<double>(nowNs() - start) / 1e9;
    start = nowNs();
    const std::vector<ReplayOutcome> replayed = replayAll(replayCache, tracer.get());
    const double tracedWall = static_cast<double>(nowNs() - start) / 1e9;
    std::size_t replayMismatches = 0;
    LayerExtras extras;
    for (std::size_t i = 0; i < replayed.size(); ++i) {
      if (!replayed[i].bodyMatches || !replayed[i].verilogMatches || !untraced[i].bodyMatches ||
          !untraced[i].verilogMatches) {
        ++replayMismatches;
        ops.markFailed(i);
      }
      extras.transportMs += exchanges[i].latencyMs - replayed[i].chainMs;
    }
    const std::vector<Span> spans = tracer->spans();
    const std::map<std::string, LayerTime> layers = layerTimes(spans);
    const LayerTime root = layers.count("serve.request") != 0 ? layers.at("serve.request") : LayerTime{};
    extras.sessionHitRatio = static_cast<double>(serverCache.hits) /
                             static_cast<double>(serverCache.hits + serverCache.misses);
    extras.coverage = root.totalMs > 0 ? (root.totalMs - root.selfMs) / root.totalMs : 0.0;
    extras.unattributedMs = root.selfMs;
    extras.overheadPercent = 100.0 * (tracedWall - untracedWall) / untracedWall;
    result.perLayer = perLayerMetrics(layers, extras);
    tracer->writeJsonLines(options.traceOut);

    JsonValue replayInfo;
    replayInfo.set("requests", static_cast<std::uint64_t>(replayed.size()));
    replayInfo.set("mismatches", static_cast<std::uint64_t>(replayMismatches));
    replayInfo.set("untraced_wall_s", untracedWall);
    replayInfo.set("traced_wall_s", tracedWall);
    replayInfo.set("spans", static_cast<std::uint64_t>(spans.size()));
    replayInfo.set("trace_file", options.traceOut);
    result.info.set("replay", std::move(replayInfo));
    if (replayMismatches > 0) result.correct = false;
  }

  result.endToEnd = endToEndMetrics(phase, ops);
  result.attempted = ops.attempted();
  result.failed = ops.failedCount();
  if (result.failed > 0 || !cacheCountersOk) result.correct = false;

  JsonValue checks;
  checks.set("passes", static_cast<std::uint64_t>(passes));
  checks.set("requests_per_pass", static_cast<std::uint64_t>(kPassRequests));
  checks.set("distinct_requests_checked", static_cast<std::uint64_t>(distinct.size()));
  checks.set("header_mismatches", static_cast<std::uint64_t>(headerMismatches));
  checks.set("body_mismatches", static_cast<std::uint64_t>(bodyMismatches));
  checks.set("cache_misses", serverCache.misses);
  checks.set("cache_misses_expected", expectedMisses);
  checks.set("cache_hits", serverCache.hits);
  checks.set("cache_evictions", serverCache.evictions);
  checks.set("cache_bytes", static_cast<std::uint64_t>(serverCache.bytes));
  result.info.set("checks", std::move(checks));
  result.info.set("tail", tailInfo(phase, ops));
  return result;
}

}  // namespace perfbench
