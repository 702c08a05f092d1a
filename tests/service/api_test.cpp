// service::runLock / runAttack / runEval determinism and validation.
//
// The serving contract (satellite d of the serve PR): response documents are
// byte-identical for identical requests no matter the cache temperature —
// cold build, warm hit, or eviction-then-rebuild — as long as wall-clock
// values are suppressed (includeWall=false; the lock document never carries
// wall values).
#include "service/api.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>

#include "campaign/fault.hpp"
#include "campaign/manifest.hpp"
#include "campaign/runner.hpp"
#include "support/diagnostics.hpp"

namespace rtlock::service {
namespace {

constexpr const char* kMixer = R"(
module mixer (input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = (a + b) ^ (a & b);
endmodule
)";

/// A lock request with small deterministic parameters.
[[nodiscard]] LockRequest lockRequest() {
  LockRequest request;
  request.source = kMixer;
  request.seed = 7;
  request.inputLabel = "mixer.v";
  return request;
}

/// An attack request on `locked` with parameters small enough for CI.
[[nodiscard]] AttackRequest attackRequest(const LockResponse& locked) {
  AttackRequest request;
  request.source = locked.lockedVerilog;
  request.key = locked.key;
  request.rounds = 2;
  request.folds = 2;
  request.repeats = 2;
  request.seed = 3;
  request.threads = 1;
  request.includeWall = false;
  return request;
}

TEST(RunLockTest, ColdAndWarmResponsesAreByteIdentical) {
  SessionCache cache;
  const LockResponse cold = runLock(cache, lockRequest());
  const LockResponse warm = runLock(cache, lockRequest());
  EXPECT_FALSE(cold.cacheHit);
  EXPECT_TRUE(warm.cacheHit);
  EXPECT_EQ(cold.designHash, warm.designHash);
  EXPECT_EQ(cold.lockedVerilog, warm.lockedVerilog);
  EXPECT_EQ(lockResponseDocument(cold).dump(), lockResponseDocument(warm).dump());
  ASSERT_EQ(cold.modules.size(), 1u);
  EXPECT_EQ(cold.modules.front().module, "mixer");
  EXPECT_GT(cold.modules.front().bitsUsed, 0);
}

TEST(RunLockTest, EvictionThenRefetchIsByteIdentical) {
  // A 1-byte budget holds one pinned session at most: locking a second
  // design evicts the first, so the third call rebuilds from scratch — and
  // the rebuilt document must not change by a byte.
  SessionCache cache{1};
  const std::string first = lockResponseDocument(runLock(cache, lockRequest())).dump();
  LockRequest other = lockRequest();
  other.source = R"(
module adder (input [7:0] a, input [7:0] b, output [7:0] y);
  assign y = a + b;
endmodule
)";
  (void)runLock(cache, other);  // evicts the mixer session
  const LockResponse rebuilt = runLock(cache, lockRequest());
  EXPECT_FALSE(rebuilt.cacheHit);
  EXPECT_EQ(first, lockResponseDocument(rebuilt).dump());
  EXPECT_GE(cache.stats().evictions, 1u);
}

TEST(RunLockTest, ExpiredDeadlineThrowsCellTimeout) {
  SessionCache cache;
  campaign::CellContext context;
  context.deadlineMs = 1.0;
  context.start = std::chrono::steady_clock::now() - std::chrono::seconds{5};
  EXPECT_THROW((void)runLock(cache, lockRequest(), &context), campaign::CellTimeout);
}

TEST(RunAttackTest, WarmVsColdReportsAreByteIdentical) {
  SessionCache warmCache;
  const LockResponse locked = runLock(warmCache, lockRequest());
  const AttackRequest request = attackRequest(locked);

  const AttackResponse warmA = runAttack(warmCache, request);
  const AttackResponse warmB = runAttack(warmCache, request);  // cache hit
  SessionCache coldCache;
  const AttackResponse cold = runAttack(coldCache, request);  // fresh build

  EXPECT_FALSE(cold.cacheHit);
  EXPECT_TRUE(warmB.cacheHit);
  const std::string label = "mixer.locked.v";
  EXPECT_EQ(attackReportDocument(request, warmA, label).dump(),
            attackReportDocument(request, warmB, label).dump());
  EXPECT_EQ(attackReportDocument(request, warmA, label).dump(),
            attackReportDocument(request, cold, label).dump());
  EXPECT_TRUE(cold.scored);
  ASSERT_EQ(cold.repeats.size(), 2u);
  for (const AttackRepeat& repeat : cold.repeats) {
    EXPECT_GT(repeat.result.keyBits, 0);
  }
  // includeWall=false zeroes wall-clock values in the *document* (the
  // response struct keeps them for callers that want timing): the dumps
  // compared above would differ otherwise.
}

TEST(RunAttackTest, MissingKeyMeansUnscoredWithNote) {
  SessionCache cache;
  const LockResponse locked = runLock(cache, lockRequest());
  AttackRequest request = attackRequest(locked);
  request.key.reset();
  const AttackResponse response = runAttack(cache, request);
  EXPECT_FALSE(response.scored);
  ASSERT_FALSE(response.notes.empty());
  EXPECT_NE(response.notes.front().find("no key file"), std::string::npos);
}

TEST(RunAttackTest, RejectsMalformedParameters) {
  SessionCache cache;
  const LockResponse locked = runLock(cache, lockRequest());
  {
    AttackRequest request = attackRequest(locked);
    request.repeats = 0;
    EXPECT_THROW((void)runAttack(cache, request), BadRequest);
  }
  {
    AttackRequest request = attackRequest(locked);
    request.folds = 1;
    EXPECT_THROW((void)runAttack(cache, request), BadRequest);
  }
  {
    AttackRequest request = attackRequest(locked);
    request.rounds = 0;
    EXPECT_THROW((void)runAttack(cache, request), BadRequest);
  }
}

TEST(RunAttackTest, UnknownModuleIsAnError) {
  SessionCache cache;
  const LockResponse locked = runLock(cache, lockRequest());
  AttackRequest request = attackRequest(locked);
  request.moduleName = "does_not_exist";
  EXPECT_THROW((void)runAttack(cache, request), support::Error);
}

/// An eval request over a 2-cell grid with CI-sized parameters.
[[nodiscard]] EvalRequest evalRequest() {
  EvalRequest request;
  request.source = kMixer;
  request.algorithms = {lock::Algorithm::Era};
  request.seeds = {1, 2};
  request.samples = 1;
  request.rounds = 2;
  request.folds = 2;
  request.campaign.threads = 1;
  request.includeWall = false;
  return request;
}

TEST(RunEvalTest, WarmVsColdReportsAreByteIdentical) {
  SessionCache warmCache;
  const EvalResponse warmA = runEval(warmCache, evalRequest());
  const EvalResponse warmB = runEval(warmCache, evalRequest());
  SessionCache coldCache;
  const EvalResponse cold = runEval(coldCache, evalRequest());

  EXPECT_FALSE(warmA.cacheHit);
  EXPECT_TRUE(warmB.cacheHit);
  EXPECT_FALSE(cold.cacheHit);
  const std::string label = "mixer.v";
  EXPECT_EQ(evalReportDocument(warmA, label).dump(), evalReportDocument(warmB, label).dump());
  EXPECT_EQ(evalReportDocument(warmA, label).dump(), evalReportDocument(cold, label).dump());
  EXPECT_EQ(cold.cells.size(), 2u);
  EXPECT_EQ(cold.campaign.okCells, 2u);
  EXPECT_TRUE(cold.cellErrors.empty());
  EXPECT_FALSE(cold.rows.empty());
}

TEST(RunEvalTest, RejectsEmptyGridAxes) {
  SessionCache cache;
  {
    EvalRequest request = evalRequest();
    request.algorithms.clear();
    EXPECT_THROW((void)runEval(cache, request), BadRequest);
  }
  {
    EvalRequest request = evalRequest();
    request.seeds.clear();
    EXPECT_THROW((void)runEval(cache, request), BadRequest);
  }
  {
    EvalRequest request = evalRequest();
    request.samples = 0;
    EXPECT_THROW((void)runEval(cache, request), BadRequest);
  }
  {
    EvalRequest request = evalRequest();
    request.rounds = 0;
    EXPECT_THROW((void)runEval(cache, request), BadRequest);
  }
}

TEST(RunEvalTest, ParseFailureSurfacesAsError) {
  SessionCache cache;
  EvalRequest request = evalRequest();
  request.source = "module broken (";
  EXPECT_THROW((void)runEval(cache, request), support::Error);
}

[[nodiscard]] std::string freshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "api_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void expectPartition(const campaign::CampaignResult& result) {
  EXPECT_EQ(result.okCells + result.errorCells + result.timeoutCells + result.skippedCells +
                result.doneElsewhere,
            result.outcomes.size());
}

TEST(RunEvalTest, ErrorRowsRerunOnResumeExceptInManifestMode) {
  const std::string dir = freshDir("resume_rule");
  SessionCache cache;
  EvalRequest failing = evalRequest();
  failing.campaign.retry.maxAttempts = 1;
  failing.campaign.faults = campaign::FaultPlan::parse("cell:0:throw");
  EvalRequest resumed = evalRequest();

  // Single process: the journaled error row is re-run on resume.
  failing.journalPath = resumed.journalPath = dir + "/eval.jsonl";
  EXPECT_EQ(runEval(cache, failing).campaign.errorCells, 1u);
  const EvalResponse rerun = runEval(cache, resumed);
  EXPECT_EQ(rerun.campaign.computedCells, 1u);
  EXPECT_EQ(rerun.campaign.okCells, 2u);
  EXPECT_EQ(rerun.campaign.errorCells, 0u);

  // Manifest mode: the error row is final, even against a wiped claim board.
  failing.journalPath.clear();
  resumed.journalPath.clear();
  failing.manifestPath = resumed.manifestPath = dir + "/c.manifest";
  failing.workerId = resumed.workerId = "w";
  const EvalResponse first = runEval(cache, failing);
  EXPECT_TRUE(first.campaign.allDone());
  EXPECT_EQ(first.campaign.errorCells, 1u);
  std::filesystem::remove_all(dir + "/c.manifest.claims");
  const EvalResponse kept = runEval(cache, resumed);
  EXPECT_TRUE(kept.campaign.allDone());
  EXPECT_EQ(kept.campaign.computedCells, 0u);
  EXPECT_EQ(kept.campaign.journaledCells, 2u);
  EXPECT_EQ(kept.campaign.errorCells, 1u);
  EXPECT_EQ(kept.cellErrors.size(), 1u);
}

TEST(RunEvalTest, UnconvergedManifestCountersPartitionTheGrid) {
  const std::string dir = freshDir("unconverged");
  const std::string manifestPath = dir + "/c.manifest";
  // Cell 1 was finished by a rival; cell 2 is held by a wedged rival whose
  // lease never expires.
  campaign::ClaimBoard rival{manifestPath, "rival", 0.0};
  rival.markDone(1, "ok");
  ASSERT_EQ(rival.tryClaim(2).status, campaign::ClaimStatus::Acquired);

  EvalRequest request = evalRequest();
  request.seeds = {1, 2, 3};
  request.manifestPath = manifestPath;
  request.workerId = "w";
  request.pollMs = 5.0;
  request.maxWaitMs = 100.0;
  SessionCache cache;
  for (const bool resumed : {false, true}) {
    const EvalResponse response = runEval(cache, request);
    const campaign::CampaignResult& run = response.campaign;
    EXPECT_TRUE(run.timedOut);
    EXPECT_FALSE(run.allDone());
    EXPECT_TRUE(response.rows.empty());
    // Cell 0 counts as ok whether computed now or reloaded from the journal;
    // the rival's cell is done elsewhere, not "not run".
    EXPECT_EQ(run.okCells, 1u);
    EXPECT_EQ(run.computedCells, resumed ? 0u : 1u);
    EXPECT_EQ(run.journaledCells, resumed ? 1u : 0u);
    EXPECT_EQ(run.doneElsewhere, 1u);
    EXPECT_EQ(run.skippedCells, 1u);
    expectPartition(run);
  }
}

}  // namespace
}  // namespace rtlock::service
