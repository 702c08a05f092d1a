// Fault-isolated, checkpointed campaign runner — the one loop that
// schedules campaign cells.
//
// `rtlock eval`, `rtlock work` and `POST /v1/eval` all drive their grids of
// pure cells through runCampaign instead of a bare TaskPool loop.  What it
// adds on top of the pool:
//
//  * per-cell fault isolation — a cell that throws is *captured* as a
//    structured error outcome (code, what(), attempt count) instead of
//    aborting the campaign; every other cell still runs;
//  * bounded retry with capped exponential backoff — transient failures get
//    `RetryPolicy::maxAttempts` tries, deterministic failures surface with
//    their attempt count recorded;
//  * per-cell wall-clock deadlines — a cell that overruns degrades to a
//    `timeout` outcome (cooperatively via CellContext::checkDeadline /
//    CellTimeout where the cell polls, post-hoc otherwise);
//  * crash-safe checkpointing — each completed cell is appended to the
//    Journal the moment it finishes, and journaled cells are skipped on the
//    next run.  One resume rule: error/timeout rows re-run unless
//    options.keepErrors (manifest-mode eval sets it, so a deterministic
//    failure never ping-pongs between the hosts of a fleet);
//  * graceful shutdown — on SIGINT/SIGTERM (or requestShutdown()) the
//    runner stops starting cells, drains in-flight workers, leaves the
//    journal flushed, and reports interrupted=true;
//  * an optional claim gate for multi-host campaigns (ClaimGate, see
//    manifest.hpp for the lease protocol).  Without one the runner submits
//    every pending cell to the pool and waits once.  With one, a pool
//    thread claims each cell right before running it; cells that rivals
//    finished are skipped, cells a rival holds are retried every pollMs,
//    claims of running cells are heartbeated every pollMs (a serial runner
//    runs cells inline, so it refreshes nothing mid-cell: size the lease
//    above the slowest cell), each result is journaled before its done
//    marker is written, journaled rows get their done markers republished,
//    a drain releases claims that were taken but not started, and maxWaitMs
//    bounds the wait when nothing anywhere in the fleet makes progress.
//    With threads == 1 cells are claimed strictly in grid order.
//
// Determinism contract: compute must be a pure function of the cell
// identity (derive all randomness from the cell's seed/substream, never
// from execution order).  Under that contract a resumed campaign merges to
// outcomes bit-identical to an uninterrupted run at any thread count, and
// the cells of a fleet merge (mergeJournals) to the same bytes as one
// process running the whole grid.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "campaign/fault.hpp"
#include "campaign/journal.hpp"
#include "support/diagnostics.hpp"

namespace rtlock::campaign {

class ClaimBoard;  // manifest.hpp

/// Raised (by cooperative deadline checks and the hang fault) when a cell
/// exceeds its wall-clock deadline; the runner records a timeout outcome.
class CellTimeout : public support::Error {
 public:
  using support::Error::Error;
};

/// One grid cell: identity plus the human-readable label progress lines use.
struct Cell {
  CellId id;
  std::string label;
};

enum class CellStatus { Ok, Error, Timeout, Skipped };

struct CellOutcome {
  CellStatus status = CellStatus::Skipped;
  int attempts = 0;
  double wallMs = 0.0;
  support::JsonValue payload;  // Ok cells: the result object
  std::string errorCode;       // Error/Timeout cells
  std::string errorWhat;
  bool fromJournal = false;    // reloaded, not computed this run
};

struct RetryPolicy {
  int maxAttempts = 2;         // total tries per cell (1 = no retry)
  double backoffBaseMs = 25.0;  // first retry delay; doubles per attempt
  double backoffCapMs = 1000.0;
};

struct CampaignOptions {
  int threads = 0;             // TaskPool convention: 0 = hardware, 1 = serial
  RetryPolicy retry;
  double cellDeadlineMs = 0.0;  // 0 = no deadline
  bool keepErrors = false;      // keep journaled error/timeout rows on resume
  FaultPlan faults;
  /// Progress hook, called once per finished cell under the runner's lock
  /// (grid index, outcome).  May be empty.
  std::function<void(std::size_t, const CellOutcome&)> onCell;
};

/// Execution context handed to compute; long-running cells should call
/// checkDeadline() at convenient points so deadlines and shutdown drains
/// take effect before the cell finishes naturally.
struct CellContext {
  std::size_t index = 0;  // grid index
  int attempt = 1;        // 1-based
  double deadlineMs = 0.0;
  std::chrono::steady_clock::time_point start{};

  [[nodiscard]] double elapsedMs() const;
  [[nodiscard]] bool deadlineExpired() const;
  /// Throws CellTimeout when the deadline has expired.
  void checkDeadline() const;
};

/// Computes one cell's result payload; throws on failure.  Must be pure in
/// the cell identity (see the determinism contract above).
using CellFn = std::function<support::JsonValue(const Cell&, const CellContext&)>;

/// The multi-host gate: cells are claimed through `board` (one worker's view
/// of a shared manifest's claim directory) before they run.
struct ClaimGate {
  ClaimBoard& board;
  double pollMs = 50.0;  // busy-cell retry and heartbeat interval
  /// Give up after this long without progress anywhere in the fleet (no
  /// claim won, no cell finished, no done marker appeared) while nothing
  /// runs locally; 0 = wait forever.  A safety net against a wedged rival
  /// holding a lease with a heartbeat that never finishes.
  double maxWaitMs = 0.0;
};

/// Counters partition the grid in every mode:
/// ok + error + timeout + skipped + doneElsewhere == outcomes.size().
struct CampaignResult {
  std::vector<CellOutcome> outcomes;  // one per cell, grid order
  std::size_t okCells = 0;
  std::size_t errorCells = 0;
  std::size_t timeoutCells = 0;
  std::size_t skippedCells = 0;    // not run: drain, maxWaitMs, or held by a rival
  std::size_t doneElsewhere = 0;   // done markers other workers published (outcome Skipped)
  std::size_t journaledCells = 0;  // of ok/error/timeout: satisfied from the journal
  std::size_t computedCells = 0;   // of ok/error/timeout: executed this run
  std::size_t steals = 0;          // stale leases reclaimed
  bool interrupted = false;        // a shutdown drain cut the campaign short
  bool timedOut = false;           // maxWaitMs elapsed with no fleet progress
  double wallMs = 0.0;

  /// Every cell is settled, here or by another worker.
  [[nodiscard]] bool allDone() const noexcept { return skippedCells == 0; }
};

/// Runs the campaign.  `journal` may be null (no checkpointing); `gate` may
/// be null (the process owns the whole grid).  With a gate, `journal` should
/// be this worker's own journal, opened against the manifest's identity.
/// Never throws for cell failures — only for infrastructure errors (journal
/// I/O, claim directory).
[[nodiscard]] CampaignResult runCampaign(const std::vector<Cell>& cells,
                                         const CampaignOptions& options, Journal* journal,
                                         const CellFn& compute, const ClaimGate* gate = nullptr);

/// Outcome <-> journal-row conversion, shared by the runner and the
/// merge-driven report builders.
[[nodiscard]] JournalRow rowFromOutcome(const Cell& cell, const CellOutcome& outcome);
[[nodiscard]] CellOutcome outcomeFromRow(const JournalRow& row);

/// --check support: re-executes a deterministic sample of up to
/// `sampleSize` journaled ok cells *serially* and byte-compares each
/// recomputed payload against the journaled row (the distributed-vs-serial
/// diff).  Returns the mismatching cell keys (empty = all byte-identical).
struct CheckResult {
  std::size_t checkedCells = 0;
  std::vector<std::string> mismatches;  // "key: journaled <...> recomputed <...>"
};
[[nodiscard]] CheckResult checkJournal(const std::vector<Cell>& cells, const Journal& journal,
                                       std::size_t sampleSize, const CellFn& compute);

// ---- graceful shutdown -----------------------------------------------------

/// Sets the process-wide shutdown flag the runner polls before claiming
/// each cell.  Async-signal-safe.
void requestShutdown() noexcept;
[[nodiscard]] bool shutdownRequested() noexcept;
/// Clears the flag (tests; and the CLI between campaigns).
void clearShutdownRequest() noexcept;

/// RAII SIGINT/SIGTERM installation: first signal requests a graceful
/// drain, a second one exits immediately (128 + signo).  The destructor
/// restores the previous handlers and clears the shutdown flag.
class ScopedSignalHandlers {
 public:
  ScopedSignalHandlers();
  ~ScopedSignalHandlers();
  ScopedSignalHandlers(const ScopedSignalHandlers&) = delete;
  ScopedSignalHandlers& operator=(const ScopedSignalHandlers&) = delete;

 private:
  void (*previousInt_)(int);
  void (*previousTerm_)(int);
};

}  // namespace rtlock::campaign
