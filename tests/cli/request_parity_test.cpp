// One request schema, two surfaces: the same settings given as `rtlock`
// flags and as an HTTP JSON body decode to equal requests, and with
// --no-wall / "no_wall" the CLI's report files and the HTTP bodies match
// byte for byte (lock, attack, eval and manifest-mode eval).
#include "cli_test_util.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "service/dispatch.hpp"
#include "service/schema.hpp"

namespace rtlock {
namespace {

using service::FieldValues;
using service::schemaFor;
using testutil::runCli;
using testutil::slurp;

constexpr const char* kMixer = R"(
module mixer (input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = (a + b) ^ (a & b);
endmodule
)";

[[nodiscard]] std::string freshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "parity_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

[[nodiscard]] std::string writeInput(const std::string& dir, const std::string& text) {
  const std::string path = dir + "/in.v";
  std::ofstream{path} << text;
  return path;
}

[[nodiscard]] FieldValues fromArgv(const char* command, const std::vector<std::string>& args) {
  return service::decodeFlags(schemaFor(command), args);
}

[[nodiscard]] FieldValues fromJson(const char* command, const std::string& body) {
  return service::decodeJson(schemaFor(command), support::parseJson(body));
}

// Every decoded setting except the per-surface ones (the source text, the
// input label, threads and the server's deadline).
[[nodiscard]] std::string describe(const service::LockRequest& r) {
  return service::algorithmName(r.algorithm) + " " + r.budget.describe() + " " +
         std::to_string(r.seed) + " " + std::to_string(r.emitBanner) + " " +
         r.session.keyPortName;
}

[[nodiscard]] std::string describe(const service::AttackRequest& r) {
  return r.session.keyPortName + " " + r.moduleName + " " + std::to_string(r.rounds) + " " +
         r.relockBudget.describe() + " " + std::to_string(r.folds) + " " +
         std::to_string(r.extendedFeatures) + " " + std::to_string(r.repeats) + " " +
         std::to_string(r.seed) + " " + std::to_string(r.includeWall);
}

[[nodiscard]] std::string describe(const service::EvalRequest& r) {
  std::string text = r.session.keyPortName + " " + r.moduleName + " " +
                     std::to_string(r.samples) + " " + std::to_string(r.rounds) + " " +
                     r.budget.describe() + " " + std::to_string(r.folds) + " " +
                     std::to_string(r.extendedFeatures) + " " + std::to_string(r.includeWall) +
                     " " + std::to_string(r.campaign.retry.maxAttempts) + " " + r.manifestPath +
                     " " + r.workerId + " " + r.journalPath + " " + std::to_string(r.leaseMs) +
                     " " + std::to_string(r.pollMs) + " " + std::to_string(r.maxWaitMs) + " |";
  for (const lock::Algorithm algorithm : r.algorithms) {
    text += " " + service::algorithmName(algorithm);
  }
  for (const std::uint64_t seed : r.seeds) text += " " + std::to_string(seed);
  return text;
}

[[nodiscard]] service::HttpResponse post(service::Dispatcher& dispatcher,
                                         const std::string& target, const std::string& body) {
  service::HttpRequest request;
  request.method = "POST";
  request.target = target;
  request.version = "HTTP/1.1";
  request.body = body;
  return dispatcher.handle(request);
}

/// `text` as a JSON string literal.
[[nodiscard]] std::string quoted(const std::string& text) {
  return support::JsonValue{text}.dump();
}

class RequestParityTest : public ::testing::Test {
 protected:
  service::SessionCache cache_;
  service::Dispatcher dispatcher_{cache_};
};

TEST_F(RequestParityTest, LockDecodesAndAnswersAlike) {
  EXPECT_EQ(describe(service::lockRequestFrom(fromArgv(
                "lock", {"in.v", "--algo=hra", "--budget=50%", "--seed=7", "--no-banner",
                         "--key-port=k"}))),
            describe(service::lockRequestFrom(fromJson(
                "lock", R"({"algo": "hra", "budget": "50%", "seed": 7, "no_banner": true,
                            "key_port": "k"})"))));

  const std::string dir = freshDir("lock");
  const std::string input = writeInput(dir, kMixer);
  const auto cli = runCli({"lock", input, "--algo=hra", "--budget=50%", "--seed=7",
                           "--out=" + dir + "/out.v", "--key-out=" + dir + "/key.json"});
  ASSERT_EQ(cli.exitCode, cli::kExitOk) << cli.err;
  const service::HttpResponse http =
      post(dispatcher_, "/v1/lock",
           R"({"source": )" + quoted(kMixer) + R"(, "label": )" + quoted(input) +
               R"(, "algo": "hra", "budget": "50%", "seed": 7})");
  ASSERT_EQ(http.status, 200) << http.body;
  const support::JsonValue body = support::parseJson(http.body);
  EXPECT_EQ(body.at("locked_verilog").asString(), slurp(dir + "/out.v"));
  EXPECT_EQ(body.at("key").dump(), slurp(dir + "/key.json"));
}

TEST_F(RequestParityTest, AttackDecodesAndAnswersAlike) {
  EXPECT_EQ(describe(service::attackRequestFrom(fromArgv(
                "attack", {"in.v", "--module=m", "--rounds=7", "--relock-budget=50%",
                           "--folds=4", "--extended-features", "--repeats=2", "--seed=9",
                           "--no-wall", "--key-port=k"}))),
            describe(service::attackRequestFrom(fromJson(
                "attack", R"({"module": "m", "rounds": 7, "relock_budget": "50%", "folds": 4,
                              "extended_features": true, "repeats": 2, "seed": 9,
                              "no_wall": true, "key_port": "k"})"))));

  const std::string dir = freshDir("attack");
  const std::string input = writeInput(dir, kMixer);
  ASSERT_EQ(runCli({"lock", input, "--seed=7", "--out=" + dir + "/locked.v",
                    "--key-out=" + dir + "/key.json"})
                .exitCode,
            cli::kExitOk);
  const std::string locked = dir + "/locked.v";
  const auto cli = runCli({"attack", locked, "--key=" + dir + "/key.json", "--rounds=3",
                           "--folds=2", "--repeats=2", "--no-wall", "--threads=1",
                           "--report=" + dir + "/report.json"});
  ASSERT_EQ(cli.exitCode, cli::kExitOk) << cli.err;
  const service::HttpResponse http =
      post(dispatcher_, "/v1/attack",
           R"({"source": )" + quoted(slurp(locked)) + R"(, "label": )" + quoted(locked) +
               R"(, "key": )" + slurp(dir + "/key.json") +
               R"(, "rounds": 3, "folds": 2, "repeats": 2, "no_wall": true})");
  ASSERT_EQ(http.status, 200) << http.body;
  EXPECT_EQ(http.body, slurp(dir + "/report.json"));
}

TEST_F(RequestParityTest, EvalDecodesAndAnswersAlike) {
  EXPECT_EQ(describe(service::evalRequestFrom(fromArgv(
                "eval", {"in.v", "--algos=era,hra", "--seeds=1..3,9", "--samples=2",
                         "--rounds=5", "--budget=50%", "--folds=4", "--extended-features",
                         "--no-wall", "--module=m", "--key-port=k"}))),
            describe(service::evalRequestFrom(fromJson(
                "eval", R"({"algos": ["era", "hra"], "seeds": "1..3,9", "samples": 2,
                            "rounds": 5, "budget": "50%", "folds": 4, "extended_features": true,
                            "no_wall": true, "module": "m", "key_port": "k"})"))));

  const std::string dir = freshDir("eval");
  const std::string input = writeInput(dir, kMixer);
  const auto cli = runCli({"eval", input, "--algos=era", "--seeds=1,2", "--samples=1",
                           "--rounds=2", "--folds=2", "--no-wall", "--threads=1",
                           "--report=" + dir + "/report.json"});
  ASSERT_EQ(cli.exitCode, cli::kExitOk) << cli.err;
  const service::HttpResponse http =
      post(dispatcher_, "/v1/eval",
           R"({"source": )" + quoted(kMixer) + R"(, "label": )" + quoted(input) +
               R"(, "algos": "era", "seeds": [1, 2], "samples": 1, "rounds": 2, "folds": 2,
                  "no_wall": true})");
  ASSERT_EQ(http.status, 200) << http.body;
  EXPECT_EQ(http.body, slurp(dir + "/report.json"));
}

TEST_F(RequestParityTest, ManifestEvalDecodesAndAnswersAlike) {
  EXPECT_EQ(describe(service::evalRequestFrom(fromArgv(
                "work", {"in.v", "--manifest=f.manifest", "--owner=w7", "--journal=w7.jsonl",
                         "--lease-ms=1500", "--poll-ms=5", "--max-wait-ms=100", "--algos=era",
                         "--seeds=4", "--samples=1", "--rounds=2", "--no-wall"}))),
            describe(service::evalRequestFrom(fromJson(
                "work", R"({"manifest": "f.manifest", "worker_id": "w7", "journal": "w7.jsonl",
                            "lease_ms": 1500, "poll_ms": 5, "max_wait_ms": 100,
                            "algos": "era", "seeds": [4], "samples": 1, "rounds": 2,
                            "no_wall": true})"))));

  // Separate manifests: each surface runs the whole grid as a one-worker fleet.
  const std::string dir = freshDir("work");
  const std::string input = writeInput(dir, kMixer);
  const auto cli = runCli({"work", input, "--manifest=" + dir + "/cli.manifest", "--owner=w",
                           "--algos=era,hra", "--seeds=1,2", "--samples=1", "--rounds=2",
                           "--folds=2", "--no-wall", "--threads=1",
                           "--report=" + dir + "/report.json"});
  ASSERT_EQ(cli.exitCode, cli::kExitOk) << cli.err;
  const service::HttpResponse http =
      post(dispatcher_, "/v1/eval",
           R"({"source": )" + quoted(kMixer) + R"(, "label": )" + quoted(input) +
               R"(, "manifest": )" + quoted(dir + "/http.manifest") +
               R"(, "worker_id": "w", "algos": ["era", "hra"], "seeds": "1,2", "samples": 1,
                  "rounds": 2, "folds": 2, "no_wall": true})");
  ASSERT_EQ(http.status, 200) << http.body;
  EXPECT_EQ(http.body, slurp(dir + "/report.json"));
}

}  // namespace
}  // namespace rtlock
