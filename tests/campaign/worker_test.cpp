// runCampaign with a claim gate — one worker of a multi-host campaign:
// full-manifest completion, the resume rule against the worker's own journal
// (error rows are re-run unless keepErrors), cooperation between two workers
// sharing one claim board, maxWaitMs giving up when a rival wedges holding a
// fresh lease, stale-lease steals, the counter partition of an interrupted
// worker, and byte-equality of gated and ungated runs at every thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "campaign/manifest.hpp"
#include "campaign/merge.hpp"
#include "campaign/runner.hpp"
#include "support/diagnostics.hpp"

namespace rtlock::campaign {
namespace {

namespace fs = std::filesystem;

std::string freshDir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "worker_" + tag;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

Manifest testManifest(std::size_t cells = 4) {
  Manifest manifest;
  manifest.identity.designHash = "00000000deadbeef";
  manifest.identity.configHash = "00000000cafef00d";
  manifest.identity.design = "alu8";
  manifest.identity.config = "samples=1 rounds=30";
  manifest.setup = "samples=1 rounds=30";
  for (std::size_t i = 0; i < cells; ++i) {
    Cell cell;
    cell.id = {manifest.identity.designHash, "toy", i + 1, manifest.identity.configHash};
    cell.label = "toy / seed " + std::to_string(i + 1);
    manifest.cells.push_back(cell);
  }
  return manifest;
}

/// Pure toy compute: payload derived only from the cell seed.
support::JsonValue toyCompute(const Cell& cell, const CellContext&) {
  support::JsonValue payload;
  payload.set("seed_times_ten", cell.id.seed * 10);
  return payload;
}

/// One worker's settings: its claim board plus the campaign options.
struct Worker {
  std::string owner;
  CampaignOptions options;
  double leaseMs = 60000.0;
  double pollMs = 50.0;
  double maxWaitMs = 0.0;
};

Worker serialWorker(const std::string& owner) {
  Worker worker;
  worker.owner = owner;
  worker.options.threads = 1;
  return worker;
}

CampaignResult work(const Manifest& manifest, const std::string& manifestPath, Journal& journal,
                    const Worker& worker, const CellFn& compute) {
  ClaimBoard board{manifestPath, worker.owner, worker.leaseMs};
  const ClaimGate gate{board, worker.pollMs, worker.maxWaitMs};
  return runCampaign(manifest.cells, worker.options, &journal, compute, &gate);
}

void expectPartition(const CampaignResult& result) {
  EXPECT_EQ(result.okCells + result.errorCells + result.timeoutCells + result.skippedCells +
                result.doneElsewhere,
            result.outcomes.size());
}

TEST(Worker, SingleWorkerCompletesTheManifest) {
  const std::string dir = freshDir("solo");
  const std::string manifestPath = dir + "/c.manifest";
  const Manifest manifest = testManifest();
  writeManifest(manifestPath, manifest);

  Journal journal{dir + "/solo.jsonl", manifest.identity};
  const CampaignResult result =
      work(manifest, manifestPath, journal, serialWorker("solo"), toyCompute);

  EXPECT_TRUE(result.allDone());
  EXPECT_FALSE(result.interrupted);
  EXPECT_FALSE(result.timedOut);
  EXPECT_EQ(result.outcomes.size(), 4u);
  EXPECT_EQ(result.computedCells, 4u);
  EXPECT_EQ(result.okCells, 4u);
  EXPECT_EQ(result.doneElsewhere, 0u);
  expectPartition(result);

  const MergeResult merged = mergeJournals({dir + "/solo.jsonl"});
  EXPECT_EQ(merged.rows.size(), 4u);
  EXPECT_EQ(merged.stats.okRows, 4u);
}

TEST(Worker, ResumeKeepsJournaledFailuresOnlyWithKeepErrors) {
  const std::string dir = freshDir("resume");
  const std::string manifestPath = dir + "/c.manifest";
  const Manifest manifest = testManifest();
  writeManifest(manifestPath, manifest);
  const std::string journalPath = dir + "/w.jsonl";

  // First run: cell seed 2 fails (deterministically).
  {
    Journal journal{journalPath, manifest.identity};
    Worker worker = serialWorker("w");
    worker.options.retry.maxAttempts = 1;
    const CellFn failing = [](const Cell& cell, const CellContext& context) {
      if (cell.id.seed == 2) throw support::Error{"deterministic failure"};
      return toyCompute(cell, context);
    };
    const CampaignResult result = work(manifest, manifestPath, journal, worker, failing);
    EXPECT_TRUE(result.allDone());
    EXPECT_EQ(result.okCells, 3u);
    EXPECT_EQ(result.errorCells, 1u);
  }

  // Wipe the claim board (simulates a fresh fleet against surviving
  // journals).  With keepErrors — what manifest-mode eval sets — the worker
  // republishes every done marker from its own journal and recomputes
  // nothing: the error row is final for the manifest.
  fs::remove_all(manifestPath + ".claims");
  std::atomic<int> computeCalls{0};
  const CellFn counting = [&](const Cell& cell, const CellContext& context) {
    computeCalls.fetch_add(1);
    return toyCompute(cell, context);
  };
  {
    Journal journal{journalPath, manifest.identity};
    Worker worker = serialWorker("w");
    worker.options.keepErrors = true;
    const CampaignResult result = work(manifest, manifestPath, journal, worker, counting);
    EXPECT_TRUE(result.allDone());
    EXPECT_EQ(computeCalls.load(), 0);
    EXPECT_EQ(result.computedCells, 0u);
    EXPECT_EQ(result.journaledCells, 4u);
    EXPECT_EQ(result.errorCells, 1u);
    const ClaimBoard board{manifestPath, "observer", 60000.0};
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) EXPECT_TRUE(board.isDone(i)) << i;
  }

  // Without keepErrors the same journal re-runs the error row, exactly as a
  // single-process resume does.
  fs::remove_all(manifestPath + ".claims");
  {
    Journal journal{journalPath, manifest.identity};
    const CampaignResult result =
        work(manifest, manifestPath, journal, serialWorker("w"), counting);
    EXPECT_TRUE(result.allDone());
    EXPECT_EQ(computeCalls.load(), 1);
    EXPECT_EQ(result.computedCells, 1u);
    EXPECT_EQ(result.journaledCells, 3u);
    EXPECT_EQ(result.okCells, 4u);
    EXPECT_EQ(result.errorCells, 0u);
  }
}

TEST(Worker, TwoWorkersPartitionTheManifestAndMergeCleanly) {
  const std::string dir = freshDir("pair");
  const std::string manifestPath = dir + "/c.manifest";
  const Manifest manifest = testManifest(12);
  writeManifest(manifestPath, manifest);

  CampaignResult results[2];
  std::vector<std::thread> threads;
  for (int w = 0; w < 2; ++w) {
    threads.emplace_back([&, w] {
      Journal journal{dir + "/w" + std::to_string(w) + ".jsonl", manifest.identity};
      Worker worker;
      worker.owner = "w" + std::to_string(w);
      worker.options.threads = 2;
      worker.pollMs = 5.0;
      results[w] = work(manifest, manifestPath, journal, worker, toyCompute);
    });
  }
  for (std::thread& thread : threads) thread.join();

  for (const CampaignResult& result : results) {
    EXPECT_TRUE(result.allDone());
    expectPartition(result);
  }
  // Every cell computed exactly once across the fleet: double computes are
  // possible only through steals, which cannot happen with fresh leases.
  EXPECT_EQ(results[0].computedCells + results[1].computedCells, 12u);
  EXPECT_EQ(results[0].okCells + results[1].okCells, 12u);
  EXPECT_EQ(results[0].doneElsewhere, results[1].computedCells);
  EXPECT_EQ(results[1].doneElsewhere, results[0].computedCells);

  const MergeResult merged = mergeJournals({dir + "/w0.jsonl", dir + "/w1.jsonl"});
  EXPECT_EQ(merged.rows.size(), 12u);
  EXPECT_EQ(merged.stats.okRows, 12u);
  for (const auto& [key, row] : merged.rows) {
    EXPECT_EQ(row.payload.at("seed_times_ten").asInt(),
              static_cast<std::int64_t>(row.id.seed * 10));
  }
}

TEST(Worker, MaxWaitGivesUpWhenARivalHoldsAFreshLease) {
  const std::string dir = freshDir("wedged");
  const std::string manifestPath = dir + "/c.manifest";
  const Manifest manifest = testManifest(3);
  writeManifest(manifestPath, manifest);

  // A "wedged" rival holds cell 1 with a fresh claim and never finishes;
  // lease expiry is disabled so the claim cannot be stolen.  Another rival
  // already finished cell 2.
  ClaimBoard rival{manifestPath, "wedged-rival", 0.0};
  ASSERT_EQ(rival.tryClaim(1).status, ClaimStatus::Acquired);
  rival.markDone(2, "ok");

  Journal journal{dir + "/w.jsonl", manifest.identity};
  Worker worker = serialWorker("w");
  worker.leaseMs = 0.0;  // never steal
  worker.pollMs = 5.0;
  worker.maxWaitMs = 200.0;
  const CampaignResult result = work(manifest, manifestPath, journal, worker, toyCompute);

  EXPECT_TRUE(result.timedOut);
  EXPECT_FALSE(result.allDone());
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.computedCells, 1u);
  EXPECT_EQ(result.okCells, 1u);
  EXPECT_EQ(result.doneElsewhere, 1u);
  EXPECT_EQ(result.skippedCells, 1u);
  EXPECT_EQ(result.outcomes[1].status, CellStatus::Skipped);
  expectPartition(result);
}

TEST(Worker, StaleLeaseFromDeadWorkerIsStolenAndCellComputed) {
  const std::string dir = freshDir("steal");
  const std::string manifestPath = dir + "/c.manifest";
  const Manifest manifest = testManifest(2);
  writeManifest(manifestPath, manifest);

  // A dead worker left a claim on cell 0; age it past the lease.
  {
    ClaimBoard dead{manifestPath, "dead-worker", 100.0};
    ASSERT_EQ(dead.tryClaim(0).status, ClaimStatus::Acquired);
    const fs::file_time_type mtime = fs::last_write_time(dead.claimPath(0));
    fs::last_write_time(dead.claimPath(0), mtime - std::chrono::milliseconds{5000});
  }

  Journal journal{dir + "/w.jsonl", manifest.identity};
  Worker worker = serialWorker("w");
  worker.leaseMs = 100.0;
  worker.pollMs = 5.0;
  const CampaignResult result = work(manifest, manifestPath, journal, worker, toyCompute);

  EXPECT_TRUE(result.allDone());
  EXPECT_EQ(result.computedCells, 2u);
  EXPECT_GE(result.steals, 1u);
}

TEST(Worker, InterruptedWorkerCountersPartitionTheGrid) {
  const std::string dir = freshDir("drain");
  const std::string manifestPath = dir + "/c.manifest";
  const Manifest manifest = testManifest(5);
  writeManifest(manifestPath, manifest);
  const std::string journalPath = dir + "/w.jsonl";

  // Cell 0 was finished by a rival; cell 1 sits in this worker's journal.
  ClaimBoard rival{manifestPath, "rival", 60000.0};
  rival.markDone(0, "ok");
  {
    Journal journal{journalPath, manifest.identity};
    JournalRow row;
    row.id = manifest.cells[1].id;
    row.status = "ok";
    row.payload = toyCompute(manifest.cells[1], CellContext{});
    journal.append(row);
  }

  // Serial walk: cell 2 computes and requests the drain, cells 3 and 4 are
  // never started — and never claimed.
  Journal journal{journalPath, manifest.identity};
  const CampaignResult result = work(manifest, manifestPath, journal, serialWorker("w"),
                                     [](const Cell& cell, const CellContext& context) {
                                       if (cell.id.seed == 3) requestShutdown();
                                       return toyCompute(cell, context);
                                     });
  clearShutdownRequest();

  EXPECT_TRUE(result.interrupted);
  EXPECT_FALSE(result.allDone());
  EXPECT_EQ(result.okCells, 2u);
  EXPECT_EQ(result.journaledCells, 1u);
  EXPECT_EQ(result.computedCells, 1u);
  EXPECT_EQ(result.doneElsewhere, 1u);
  EXPECT_EQ(result.skippedCells, 2u);
  expectPartition(result);
  EXPECT_FALSE(fs::exists(rival.claimPath(3)));
  EXPECT_FALSE(fs::exists(rival.claimPath(4)));
}

/// The claim gate decides only *who* runs a cell, never what it computes:
/// the same grid with and without a board yields identical outcomes and
/// journal rows (wall_ms aside) at every thread count.
class GateEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(GateEquivalence, GatedAndUngatedRunsAreByteIdentical) {
  const int threads = GetParam();
  const std::string dir = freshDir("equivalence_t" + std::to_string(threads));
  const Manifest manifest = testManifest(10);
  const CellFn compute = [](const Cell& cell, const CellContext& context) {
    if (cell.id.seed % 4 == 0) throw support::Error{"seed divisible by four"};
    return toyCompute(cell, context);
  };
  CampaignOptions options;
  options.threads = threads;
  options.retry.backoffBaseMs = 1.0;

  CampaignResult ungated;
  {
    Journal journal{dir + "/ungated.jsonl", manifest.identity};
    ungated = runCampaign(manifest.cells, options, &journal, compute);
  }
  const std::string manifestPath = dir + "/c.manifest";
  writeManifest(manifestPath, manifest);
  CampaignResult gated;
  {
    Journal journal{dir + "/gated.jsonl", manifest.identity};
    Worker worker;
    worker.owner = "w";
    worker.options = options;
    worker.pollMs = 5.0;
    gated = work(manifest, manifestPath, journal, worker, compute);
  }

  ASSERT_EQ(gated.outcomes.size(), ungated.outcomes.size());
  EXPECT_EQ(gated.okCells, 8u);
  EXPECT_EQ(gated.errorCells, 2u);
  for (std::size_t i = 0; i < gated.outcomes.size(); ++i) {
    JournalRow gatedRow = rowFromOutcome(manifest.cells[i], gated.outcomes[i]);
    JournalRow ungatedRow = rowFromOutcome(manifest.cells[i], ungated.outcomes[i]);
    gatedRow.wallMs = ungatedRow.wallMs = 0.0;
    EXPECT_EQ(journalRowToJson(gatedRow).dumpLine(), journalRowToJson(ungatedRow).dumpLine())
        << "cell " << i;
  }

  const auto sortedRows = [](const std::string& path) {
    std::vector<std::string> lines;
    for (JournalRow row : readJournalFile(path).rows) {
      row.wallMs = 0.0;
      lines.push_back(journalRowToJson(row).dumpLine());
    }
    std::sort(lines.begin(), lines.end());  // completion order varies with threads
    return lines;
  };
  const std::vector<std::string> ungatedRows = sortedRows(dir + "/ungated.jsonl");
  EXPECT_EQ(ungatedRows.size(), 10u);
  EXPECT_EQ(sortedRows(dir + "/gated.jsonl"), ungatedRows);
}

INSTANTIATE_TEST_SUITE_P(Threads, GateEquivalence, ::testing::Values(1, 2, 4));

}  // namespace
}  // namespace rtlock::campaign
