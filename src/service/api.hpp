// Library-level lock/attack/eval entry points — the bodies that used to
// live inside the CLI subcommands, now callable by anything that holds a
// SessionCache (the thin CLI wrappers, `rtlock serve`, tests, future
// search loops).
//
// Every function is a pure request -> response mapping on top of a cached
// DesignSession: the response is bit-identical for identical (design
// content, seed, config) whether the session was freshly built or served
// warm, at any thread count, in any arrival order (tests/service/
// api_test.cpp pins warm-vs-cold byte equality).  Wall-clock values are the
// one exception and are suppressed entirely with includeWall=false.
//
// Error taxonomy: BadRequest = the caller's parameters are malformed
// (kExitUsage / HTTP 400 with the message); support::Error = the input
// design or key data is unusable (also the caller's fault in a service
// setting — HTTP 400); campaign::CellTimeout = the per-request deadline
// expired (HTTP 504).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "attack/snapshot.hpp"
#include "campaign/runner.hpp"
#include "service/session.hpp"
#include "service/types.hpp"

namespace rtlock::service {

// ---- lock ------------------------------------------------------------------

struct LockRequest {
  std::string source;      // Verilog netlist text
  SessionOptions session;  // key-port name
  lock::Algorithm algorithm = lock::Algorithm::Era;
  BudgetSpec budget;  // default 75% of lockable operations
  std::uint64_t seed = 1;
  bool emitBanner = true;           // locking-statistics banner comment
  std::string inputLabel = "<request>";  // provenance text in the key file
};

/// Per-module summary of one lock run (the CLI's table rows).
struct LockModuleSummary {
  std::string module;
  int lockableOps = 0;
  int bitsUsed = 0;
  int keyWidth = 0;
  double globalMetric = 0.0;
  double restrictedMetric = 0.0;
};

struct LockResponse {
  std::string designHash;  // SessionCache content hash
  bool cacheHit = false;
  std::string lockedVerilog;
  KeyFile key;
  std::vector<LockModuleSummary> modules;
  std::vector<std::string> notes;  // skipped-module diagnostics
};

/// Locks every lockable module of the request's design: module i draws from
/// substream(i) of the seed's root stream.  Throws support::Error when a
/// module already carries key bits or nothing is lockable.  `deadline` (may
/// be null) is polled between modules; overruns throw campaign::CellTimeout.
[[nodiscard]] LockResponse runLock(SessionCache& cache, const LockRequest& request,
                                   const campaign::CellContext* deadline = nullptr);

// ---- attack ----------------------------------------------------------------

struct AttackRequest {
  std::string source;      // locked Verilog netlist text
  SessionOptions session;  // key-port name
  std::string moduleName;  // empty = the design's only keyed module
  std::optional<KeyFile> key;  // present = score KPA against ground truth
  int rounds = 1000;           // training relock rounds
  BudgetSpec relockBudget;     // fraction-only (training budget)
  int folds = 3;               // auto-ml cross-validation folds
  bool extendedFeatures = false;
  int repeats = 1;
  std::uint64_t seed = 1;  // repeat r draws from substream(r)
  int threads = 0;         // TaskPool convention: 0 = hardware, 1 = serial
  bool includeWall = true;
};

struct AttackRepeat {
  attack::SnapshotResult result;
  double wallMs = 0.0;
};

struct AttackResponse {
  std::string designHash;
  bool cacheHit = false;
  std::string moduleName;
  bool scored = false;
  std::string setup;  // "snapshot rounds=... budget=... folds=..." config text
  std::vector<AttackRepeat> repeats;
  std::vector<ReportRow> rows;
  std::vector<std::string> notes;
  double totalWallMs = 0.0;
};

/// Runs the SnapShot-RTL attack; repeats shard across a private TaskPool and
/// each clones the cached session's target module.  `deadline` (may be null)
/// is polled between repeats; overruns throw campaign::CellTimeout.
[[nodiscard]] AttackResponse runAttack(SessionCache& cache, const AttackRequest& request,
                                       const campaign::CellContext* deadline = nullptr);

// ---- eval ------------------------------------------------------------------

struct EvalRequest {
  std::string source;
  SessionOptions session;
  std::string moduleName;  // empty = the design's only module
  std::vector<lock::Algorithm> algorithms;
  std::vector<std::uint64_t> seeds;
  int samples = 10;  // locked samples per cell
  int rounds = 1000;
  BudgetSpec budget;  // fraction-only
  int folds = 3;
  bool extendedFeatures = false;
  bool verifyFunctional = false;
  campaign::CampaignOptions campaign;  // threads, retries, deadlines, faults
  bool includeWall = true;
  std::string journalPath;     // non-empty: checkpoint cells to this journal
  std::size_t checkCells = 0;  // with a journal: re-check this many cells

  // Distributed manifest mode (`rtlock work` and serve's manifest eval):
  // non-empty manifestPath switches runEval from owning the whole grid to
  // claiming cells from the shared manifest (created atomically on first
  // use, validated against the request on every use).  journalPath then
  // defaults to `<manifest>.journals/<workerId>.jsonl`, and journaled
  // error/timeout rows are kept (campaign.keepErrors is forced on).
  std::string manifestPath;
  std::string workerId;       // empty = "<hostname>-<pid>"
  double leaseMs = 60000.0;   // claim lease; <= 0 disables stale-claim steals
  double pollMs = 50.0;       // sweep sleep while other workers hold cells
  double maxWaitMs = 0.0;     // give up after this long with no fleet progress
};

struct EvalResponse {
  std::string designHash;
  bool cacheHit = false;
  std::string moduleName;
  std::string setup;       // row config text ("samples=... rounds=... budget=...")
  std::string configText;  // full campaign config identity text
  std::vector<campaign::Cell> cells;
  campaign::CampaignResult campaign;
  std::vector<ReportRow> rows;
  std::vector<std::string> cellErrors;  // formatted error/timeout lines
  bool journaled = false;               // a journal was open for this run
  std::size_t journalReloadedRows = 0;
  bool journalTornTail = false;
  std::size_t checkedCells = 0;
  std::vector<std::string> checkMismatches;

  // Manifest mode: the journals unioned for the report once the fleet
  // converged (campaign.allDone()); campaign's counters then cover the fleet.
  std::vector<std::string> mergedJournals;
};

/// Runs the (algorithm x seed) grid through the campaign runner.  With a
/// journalPath the campaign checkpoints (and resumes); with checkCells > 0 a
/// deterministic sample of journaled cells is additionally recomputed and
/// byte-compared.  Cell failures become structured outcomes, never
/// exceptions; a journal belonging to a different campaign throws
/// support::Error.
[[nodiscard]] EvalResponse runEval(SessionCache& cache, const EvalRequest& request);

/// Rebuilds an eval report's rows from grid cells and their outcomes.  The
/// one row builder behind runEval, `rtlock work` and `rtlock merge
/// --manifest`, so a merged multi-worker report cannot drift from the
/// single-process bytes.  `outcomeAt` returns the outcome for a grid index
/// (nullptr = cell missing); cells must be algorithm-major (manifest order).
[[nodiscard]] std::vector<ReportRow> evalReportRows(
    const std::string& moduleName, const std::string& setup,
    const std::vector<campaign::Cell>& cells,
    const std::function<const campaign::CellOutcome*(std::size_t)>& outcomeAt, bool includeWall);

// ---- report documents ------------------------------------------------------

/// `rtlock-attack-report/v1` document (the --report file / HTTP body).
[[nodiscard]] support::JsonValue attackReportDocument(const AttackRequest& request,
                                                      const AttackResponse& response,
                                                      const std::string& inputLabel);

/// `rtlock-eval-report/v1` document.
[[nodiscard]] support::JsonValue evalReportDocument(const EvalResponse& response,
                                                    const std::string& inputLabel);

/// `rtlock-lock-response/v1` document (the HTTP lock body: key file +
/// locked netlist + per-module summaries).
[[nodiscard]] support::JsonValue lockResponseDocument(const LockResponse& response);

}  // namespace rtlock::service
