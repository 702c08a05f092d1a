// Dispatcher: the whole `rtlock serve` endpoint surface without sockets —
// routing, JSON validation, error mapping, cache headers, and the
// miss-then-hit byte-identical body contract.
#include "service/dispatch.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "service/api.hpp"
#include "service/schema.hpp"
#include "support/json.hpp"

namespace rtlock::service {
namespace {

constexpr const char* kMixer = R"(
module mixer (input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = (a + b) ^ (a & b);
endmodule
)";

[[nodiscard]] HttpRequest makeRequest(std::string method, std::string target,
                                      std::string body = {}) {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  return request;
}

[[nodiscard]] std::string headerOf(const HttpResponse& response, const std::string& name) {
  for (const auto& [key, value] : response.extraHeaders) {
    if (key == name) return value;
  }
  return {};
}

class DispatchTest : public ::testing::Test {
 protected:
  SessionCache cache_;
  Dispatcher dispatcher_{cache_};
};

TEST_F(DispatchTest, HealthzReportsBuildIdentity) {
  const HttpResponse response = dispatcher_.handle(makeRequest("GET", "/healthz"));
  ASSERT_EQ(response.status, 200);
  const support::JsonValue document = support::parseJson(response.body);
  EXPECT_EQ(document.find("status")->asString(), "ok");
  EXPECT_FALSE(document.find("version")->asString().empty());
  EXPECT_FALSE(document.find("engine")->asString().empty());
  const support::JsonArray& backends = document.find("sim_backends")->asArray();
  ASSERT_EQ(backends.size(), 2u);
  EXPECT_EQ(backends[0].asString(), "interpreter");
  EXPECT_EQ(backends[1].asString(), "sliced");
}

TEST_F(DispatchTest, StatsCountersTrackOutcomes) {
  (void)dispatcher_.handle(makeRequest("GET", "/healthz"));              // ok
  (void)dispatcher_.handle(makeRequest("GET", "/nope"));                 // 404
  (void)dispatcher_.handle(makeRequest("POST", "/v1/lock", "not json")); // 400
  const HttpResponse response = dispatcher_.handle(makeRequest("GET", "/v1/stats"));
  ASSERT_EQ(response.status, 200);
  const support::JsonValue document = support::parseJson(response.body);
  const support::JsonValue* requests = document.find("requests");
  ASSERT_NE(requests, nullptr);
  // The stats request itself is the 4th; it snapshots counters mid-flight,
  // so `total` covers all four but `ok` has not yet counted the response.
  EXPECT_EQ(requests->find("total")->asInt(), 4);
  EXPECT_EQ(requests->find("client_errors")->asInt(), 2);
  EXPECT_EQ(requests->find("server_errors")->asInt(), 0);
  const support::JsonValue* cacheDoc = document.find("cache");
  ASSERT_NE(cacheDoc, nullptr);
  EXPECT_EQ(cacheDoc->find("entries")->asInt(), 0);
  EXPECT_GT(cacheDoc->find("byte_budget")->asInt(), 0);
}

TEST_F(DispatchTest, UnknownEndpointIs404) {
  const HttpResponse response = dispatcher_.handle(makeRequest("GET", "/v2/lock"));
  EXPECT_EQ(response.status, 404);
  EXPECT_NE(response.body.find("no such endpoint"), std::string::npos);
}

TEST_F(DispatchTest, WrongMethodIs405) {
  EXPECT_EQ(dispatcher_.handle(makeRequest("POST", "/healthz")).status, 405);
  EXPECT_EQ(dispatcher_.handle(makeRequest("GET", "/v1/lock")).status, 405);
  EXPECT_EQ(dispatcher_.handle(makeRequest("DELETE", "/v1/lock")).status, 405);
}

TEST_F(DispatchTest, MalformedBodiesAre400) {
  // Syntax error, non-object root, invalid UTF-8, missing source, and a
  // wrongly-typed field: all client errors, all structured JSON answers.
  for (const char* body : {"{not json", "[1,2]", "{\"source\": \"\xFF\xFE\"}", "{}",
                           "{\"source\": 42}",
                           "{\"source\": \"module m; endmodule\", \"seed\": -1}"}) {
    const HttpResponse response = dispatcher_.handle(makeRequest("POST", "/v1/lock", body));
    EXPECT_EQ(response.status, 400) << body;
    const support::JsonValue document = support::parseJson(response.body);
    EXPECT_NE(document.find("error"), nullptr) << body;
  }
}

TEST_F(DispatchTest, UnparsableVerilogIs400) {
  support::JsonValue body;
  body.set("source", "module broken (");
  const HttpResponse response = dispatcher_.handle(makeRequest("POST", "/v1/lock", body.dump()));
  EXPECT_EQ(response.status, 400);
}

TEST_F(DispatchTest, OutOfRangeBitIndexIs400) {
  support::JsonValue body;
  body.set("source",
           "module m (input [7:0] a, output [7:0] y); assign y[4294967296] = a[0]; endmodule\n");
  const HttpResponse response = dispatcher_.handle(makeRequest("POST", "/v1/lock", body.dump()));
  EXPECT_EQ(response.status, 400);
  const support::JsonValue document = support::parseJson(response.body);
  EXPECT_NE(document.at("error").asString().find("out of range"), std::string::npos)
      << document.at("error").asString();
}

TEST_F(DispatchTest, DeeplyNestedBodiesAre400) {
  // Each body is far under the default body limit, and each used to kill the
  // daemon with a stack overflow: two in the Verilog parser or the passes
  // over what it built, one in the JSON parser.
  const auto lockBody = [](const std::string& expr) {
    support::JsonValue body;
    body.set("source", "module m (input [7:0] a, output [7:0] y);\n  assign y = " + expr +
                           ";\nendmodule\n");
    return body.dumpLine();
  };
  std::string chain = "a";
  chain.reserve(4'000'000);
  for (int i = 1; i < 1'000'000; ++i) chain += " + a";
  const std::string bodies[] = {
      lockBody(std::string(30000, '(') + "a" + std::string(30000, ')')),
      lockBody(chain),
      R"({"source": )" + std::string(100000, '[') + std::string(100000, ']') + "}",
  };
  for (const std::string& body : bodies) {
    const HttpResponse response = dispatcher_.handle(makeRequest("POST", "/v1/lock", body));
    EXPECT_EQ(response.status, 400) << body.substr(0, 80);
    const support::JsonValue document = support::parseJson(response.body);
    EXPECT_NE(document.at("error").asString().find("levels"), std::string::npos)
        << document.at("error").asString();
  }
}

TEST_F(DispatchTest, ReplicationBlowUpIs400) {
  // 79 bytes of nested replication used to clone into 16.7M nodes and end
  // in std::bad_alloc.
  support::JsonValue body;
  body.set("source",
           "module m (input a, output y); assign y = {64{{64{{64{{64{a}}}}}}}}; endmodule\n");
  const HttpResponse response = dispatcher_.handle(makeRequest("POST", "/v1/lock", body.dump()));
  EXPECT_EQ(response.status, 400);
  const support::JsonValue document = support::parseJson(response.body);
  EXPECT_NE(document.at("error").asString().find("expression nodes"), std::string::npos)
      << document.at("error").asString();
}

TEST_F(DispatchTest, LockMissThenHitBodiesAreByteIdentical) {
  support::JsonValue body;
  body.set("source", kMixer);
  body.set("seed", std::uint64_t{7});
  const HttpResponse cold = dispatcher_.handle(makeRequest("POST", "/v1/lock", body.dump()));
  const HttpResponse warm = dispatcher_.handle(makeRequest("POST", "/v1/lock", body.dump()));
  ASSERT_EQ(cold.status, 200);
  ASSERT_EQ(warm.status, 200);
  EXPECT_EQ(headerOf(cold, "X-Rtlock-Cache"), "miss");
  EXPECT_EQ(headerOf(warm, "X-Rtlock-Cache"), "hit");
  EXPECT_EQ(headerOf(cold, "X-Rtlock-Design-Hash"), headerOf(warm, "X-Rtlock-Design-Hash"));
  // Cache state lives in headers only: the bodies match byte for byte.
  EXPECT_EQ(cold.body, warm.body);
}

TEST_F(DispatchTest, AttackEndpointScoresAgainstSuppliedKey) {
  // Lock through the service API, then attack the result over HTTP JSON.
  LockRequest lockReq;
  lockReq.source = kMixer;
  lockReq.seed = 7;
  const LockResponse locked = runLock(cache_, lockReq);

  support::JsonValue body;
  body.set("source", locked.lockedVerilog);
  body.set("key", keyFileToJson(locked.key));
  body.set("rounds", std::uint64_t{2});
  body.set("folds", std::uint64_t{2});
  body.set("repeats", std::uint64_t{1});
  body.set("no_wall", true);
  const HttpResponse first = dispatcher_.handle(makeRequest("POST", "/v1/attack", body.dump()));
  ASSERT_EQ(first.status, 200) << first.body;
  const HttpResponse second = dispatcher_.handle(makeRequest("POST", "/v1/attack", body.dump()));
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(headerOf(second, "X-Rtlock-Cache"), "hit");
  EXPECT_EQ(first.body, second.body);
  const support::JsonValue document = support::parseJson(first.body);
  EXPECT_NE(document.find("schema"), nullptr);
}

TEST_F(DispatchTest, EvalEndpointRunsTheGrid) {
  support::JsonValue body;
  body.set("source", kMixer);
  body.set("algos", "era");
  body.set("seeds", "1,2");
  body.set("samples", std::uint64_t{1});
  body.set("rounds", std::uint64_t{2});
  body.set("folds", std::uint64_t{2});
  body.set("no_wall", true);
  const HttpResponse first = dispatcher_.handle(makeRequest("POST", "/v1/eval", body.dump()));
  ASSERT_EQ(first.status, 200) << first.body;
  const HttpResponse second = dispatcher_.handle(makeRequest("POST", "/v1/eval", body.dump()));
  ASSERT_EQ(second.status, 200);
  EXPECT_EQ(headerOf(first, "X-Rtlock-Cache"), "miss");
  EXPECT_EQ(headerOf(second, "X-Rtlock-Cache"), "hit");
  EXPECT_EQ(first.body, second.body);
}

TEST_F(DispatchTest, EvalRejectsEmptyAxes) {
  support::JsonValue body;
  body.set("source", kMixer);
  body.set("seeds", support::JsonValue{support::JsonArray{}});
  const HttpResponse response = dispatcher_.handle(makeRequest("POST", "/v1/eval", body.dump()));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("seeds"), std::string::npos);
}

TEST_F(DispatchTest, EvalRejectsOversizedSeedLists) {
  // 900 bytes of "0..10000," used to expand to a million seeds (three
  // million grid cells) before any check ran.
  std::string ranges;
  for (int i = 0; i < 100; ++i) ranges += "0..10000,";
  support::JsonArray many;
  for (std::int64_t seed = 0; seed <= static_cast<std::int64_t>(kMaxSeeds); ++seed) {
    many.emplace_back(seed);
  }
  const auto expectRejected = [this](support::JsonValue seeds) {
    support::JsonValue body;
    body.set("source", kMixer);
    body.set("seeds", std::move(seeds));
    const HttpResponse response = dispatcher_.handle(makeRequest("POST", "/v1/eval", body.dump()));
    EXPECT_EQ(response.status, 400);
    EXPECT_NE(response.body.find("10000 seeds"), std::string::npos) << response.body;
  };
  expectRejected(support::JsonValue{ranges});
  expectRejected(support::JsonValue{std::move(many)});
}

TEST_F(DispatchTest, UnknownFieldsAre400NamingTheField) {
  // A typo used to run with the default: {"round": 5} attacked with 1000
  // rounds and answered 200.
  for (const char* target : {"/v1/lock", "/v1/attack", "/v1/eval"}) {
    support::JsonValue body;
    body.set("source", kMixer);
    body.set("round", std::uint64_t{5});
    const HttpResponse response = dispatcher_.handle(makeRequest("POST", target, body.dump()));
    EXPECT_EQ(response.status, 400) << target;
    EXPECT_NE(response.body.find("'round'"), std::string::npos) << response.body;
  }
  // CLI-only rows are unknown over HTTP too.
  support::JsonValue body;
  body.set("source", kMixer);
  body.set("threads", std::uint64_t{4});
  EXPECT_EQ(dispatcher_.handle(makeRequest("POST", "/v1/attack", body.dump())).status, 400);
}

TEST_F(DispatchTest, ManifestOnlyFieldsNeedManifest) {
  // These were silently dropped from a plain eval body.
  for (const char* field : {"worker_id", "journal", "lease_ms", "poll_ms", "max_wait_ms"}) {
    support::JsonValue body;
    body.set("source", kMixer);
    if (std::string{field} == "worker_id" || std::string{field} == "journal") {
      body.set(field, "x");
    } else {
      body.set(field, std::uint64_t{10});
    }
    const HttpResponse response = dispatcher_.handle(makeRequest("POST", "/v1/eval", body.dump()));
    EXPECT_EQ(response.status, 400) << field;
    EXPECT_NE(response.body.find(field), std::string::npos) << response.body;
  }
}

TEST_F(DispatchTest, MillisecondFieldsAreBoundedIntegers) {
  // poll_ms up to 2^63 used to reach a ms -> us cast that overflowed; NaN
  // and infinity cannot be JSON numbers, so they arrive as strings.
  const std::string manifest = ::testing::TempDir() + "dispatch_ms.manifest";
  for (const char* field : {"lease_ms", "poll_ms", "max_wait_ms"}) {
    for (const char* value : {"-5", "1e300", "9223372036854775807", "1000000000001", "2.5",
                              "\"nan\"", "\"inf\""}) {
      const std::string body = R"({"source": "module m; endmodule", "manifest": ")" + manifest +
                                R"(", ")" + field + R"(": )" + value + "}";
      const HttpResponse response = dispatcher_.handle(makeRequest("POST", "/v1/eval", body));
      EXPECT_EQ(response.status, 400) << field << " = " << value;
      EXPECT_NE(response.body.find(field), std::string::npos) << response.body;
    }
  }
  const HttpResponse zeroPoll = dispatcher_.handle(makeRequest(
      "POST", "/v1/eval",
      R"({"source": "module m; endmodule", "manifest": ")" + manifest + R"(", "poll_ms": 0})"));
  EXPECT_EQ(zeroPoll.status, 400);
}

TEST_F(DispatchTest, EmptyManifestIsABadRequest) {
  // "manifest": "" used to run a plain eval and answer 200.
  support::JsonValue body;
  body.set("source", kMixer);
  body.set("manifest", "");
  const HttpResponse response = dispatcher_.handle(makeRequest("POST", "/v1/eval", body.dump()));
  EXPECT_EQ(response.status, 400);
  EXPECT_NE(response.body.find("manifest"), std::string::npos) << response.body;
}

TEST_F(DispatchTest, BudgetRejectsNonFiniteFractions) {
  for (const char* target : {"/v1/lock", "/v1/eval"}) {
    support::JsonValue body;
    body.set("source", kMixer);
    body.set("budget", "nan%");
    EXPECT_EQ(dispatcher_.handle(makeRequest("POST", target, body.dump())).status, 400) << target;
  }
  support::JsonValue body;
  body.set("source", kMixer);
  body.set("relock_budget", "nan%");
  EXPECT_EQ(dispatcher_.handle(makeRequest("POST", "/v1/attack", body.dump())).status, 400);
}

TEST_F(DispatchTest, ManifestBodiesDecodeThroughTheWorkTable) {
  support::JsonValue body;
  body.set("source", kMixer);
  body.set("manifest", "fleet.manifest");
  body.set("worker_id", "w7");
  body.set("journal", "w7.jsonl");
  body.set("lease_ms", std::uint64_t{1500});
  body.set("poll_ms", std::uint64_t{5});
  body.set("max_wait_ms", std::uint64_t{100});
  body.set("algos", support::JsonValue{support::JsonArray{support::JsonValue{"era"}}});
  body.set("seeds", support::JsonValue{support::JsonArray{support::JsonValue{std::uint64_t{3}}}});
  const EvalRequest request = evalRequestFrom(decodeJson(schemaFor("work"), body));
  EXPECT_EQ(request.manifestPath, "fleet.manifest");
  EXPECT_EQ(request.workerId, "w7");
  EXPECT_EQ(request.journalPath, "w7.jsonl");
  EXPECT_EQ(request.leaseMs, 1500.0);
  EXPECT_EQ(request.pollMs, 5.0);
  EXPECT_EQ(request.maxWaitMs, 100.0);
  EXPECT_EQ(request.algorithms, std::vector<lock::Algorithm>{lock::Algorithm::Era});
  EXPECT_EQ(request.seeds, std::vector<std::uint64_t>{3});
}

}  // namespace
}  // namespace rtlock::service
