#include "campaign/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <utility>

#include "campaign/manifest.hpp"
#include "support/task_pool.hpp"

namespace rtlock::campaign {

namespace {

std::atomic<bool> g_shutdownRequested{false};
std::atomic<int> g_signalCount{0};

// Async-signal-safe: one atomic store plus (on the second signal) _Exit.
void onShutdownSignal(int signo) {
  g_shutdownRequested.store(true, std::memory_order_release);
  if (g_signalCount.fetch_add(1, std::memory_order_acq_rel) >= 1) {
    std::_Exit(128 + signo);
  }
}

[[nodiscard]] const char* statusName(CellStatus status) noexcept {
  switch (status) {
    case CellStatus::Ok:
      return "ok";
    case CellStatus::Error:
      return "error";
    case CellStatus::Timeout:
      return "timeout";
    case CellStatus::Skipped:
      return "skipped";
  }
  return "skipped";
}

[[nodiscard]] CellStatus statusFromName(const std::string& name) {
  if (name == "ok") return CellStatus::Ok;
  if (name == "timeout") return CellStatus::Timeout;
  return CellStatus::Error;
}

/// Sleeps `delayMs`, polling the shutdown flag so a drain never waits out a
/// long backoff.  Returns false when the sleep was cut short by shutdown.
[[nodiscard]] bool backoffSleep(double delayMs) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point until =
      Clock::now() + std::chrono::microseconds{static_cast<long long>(delayMs * 1000.0)};
  while (Clock::now() < until) {
    if (shutdownRequested()) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
  return !shutdownRequested();
}

/// The hang fault: spin cooperatively until the deadline fires (CellTimeout)
/// or a shutdown drain stops the cell (plain error).  Never returns normally.
[[noreturn]] void runHangFault(const CellContext& context) {
  for (;;) {
    context.checkDeadline();
    if (shutdownRequested()) {
      throw support::Error{"injected hang interrupted by shutdown"};
    }
    std::this_thread::sleep_for(std::chrono::milliseconds{1});
  }
}

/// Runs one cell with the full retry/backoff/deadline/fault machinery;
/// never lets a cell exception escape.  (An injected crash fault does not
/// return at all.)
CellOutcome executeCell(const Cell& cell, std::size_t index, const CampaignOptions& options,
                        const CellFn& compute) {
  const std::optional<FaultKind> fault = options.faults.at(index);
  const int maxAttempts = std::max(1, options.retry.maxAttempts);
  CellOutcome outcome;
  for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
    CellContext context;
    context.index = index;
    context.attempt = attempt;
    context.deadlineMs = options.cellDeadlineMs;
    context.start = std::chrono::steady_clock::now();
    try {
      if (fault == FaultKind::Crash) std::_Exit(kCrashExitCode);
      if (fault == FaultKind::Throw) {
        throw support::Error{"injected fault: cell " + std::to_string(index) + " attempt " +
                             std::to_string(attempt)};
      }
      if (fault == FaultKind::Hang) runHangFault(context);
      support::JsonValue payload = compute(cell, context);
      outcome.wallMs = context.elapsedMs();
      outcome.attempts = attempt;
      if (options.cellDeadlineMs > 0.0 && outcome.wallMs > options.cellDeadlineMs) {
        // The cell finished, but past its budget: degrade post-hoc so
        // runaway cells are visible even when they never poll the deadline.
        outcome.status = CellStatus::Timeout;
        outcome.errorCode = "timeout";
        outcome.errorWhat = "cell exceeded its deadline of " +
                            std::to_string(static_cast<long long>(options.cellDeadlineMs)) + " ms";
        return outcome;
      }
      outcome.status = CellStatus::Ok;
      outcome.payload = std::move(payload);
      return outcome;
    } catch (const CellTimeout& timeout) {
      // Deadlines are wall-clock budgets, not transient failures: no retry.
      outcome.status = CellStatus::Timeout;
      outcome.attempts = attempt;
      outcome.wallMs = context.elapsedMs();
      outcome.errorCode = "timeout";
      outcome.errorWhat = timeout.what();
      return outcome;
    } catch (const support::Error& error) {
      outcome.errorCode = "error";
      outcome.errorWhat = error.what();
    } catch (const std::exception& error) {
      outcome.errorCode = "exception";
      outcome.errorWhat = error.what();
    } catch (...) {
      outcome.errorCode = "unknown";
      outcome.errorWhat = "non-standard exception";
    }
    outcome.status = CellStatus::Error;
    outcome.attempts = attempt;
    outcome.wallMs = context.elapsedMs();
    if (attempt < maxAttempts) {
      const double delay =
          std::min(options.retry.backoffCapMs,
                   options.retry.backoffBaseMs * static_cast<double>(1LL << (attempt - 1)));
      if (!backoffSleep(delay)) return outcome;  // drain: report what we have
    }
  }
  return outcome;
}

}  // namespace

JournalRow rowFromOutcome(const Cell& cell, const CellOutcome& outcome) {
  JournalRow row;
  row.id = cell.id;
  row.status = statusName(outcome.status);
  row.attempts = outcome.attempts;
  row.wallMs = outcome.wallMs;
  if (outcome.status == CellStatus::Ok) {
    row.payload = outcome.payload;
  } else {
    row.errorCode = outcome.errorCode;
    row.errorWhat = outcome.errorWhat;
  }
  return row;
}

CellOutcome outcomeFromRow(const JournalRow& row) {
  CellOutcome outcome;
  outcome.status = statusFromName(row.status);
  outcome.attempts = row.attempts;
  outcome.wallMs = row.wallMs;
  outcome.fromJournal = true;
  if (outcome.status == CellStatus::Ok) {
    outcome.payload = row.payload;
  } else {
    outcome.errorCode = row.errorCode;
    outcome.errorWhat = row.errorWhat;
  }
  return outcome;
}

double CellContext::elapsedMs() const {
  const std::chrono::duration<double, std::milli> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

bool CellContext::deadlineExpired() const {
  return deadlineMs > 0.0 && elapsedMs() > deadlineMs;
}

void CellContext::checkDeadline() const {
  if (deadlineExpired()) {
    throw CellTimeout{"cell " + std::to_string(index) + " exceeded its deadline of " +
                      std::to_string(static_cast<long long>(deadlineMs)) + " ms"};
  }
}

CampaignResult runCampaign(const std::vector<Cell>& cells, const CampaignOptions& options,
                           Journal* journal, const CellFn& compute, const ClaimGate* gate) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point campaignStart = Clock::now();
  CampaignResult result;
  result.outcomes.resize(cells.size());

  // Satisfy cells from the journal first.  Error/timeout rows are re-run
  // unless keepErrors asked to preserve them (e.g. to inspect a failure
  // without burning compute on a known-bad cell).  With a gate, a kept row's
  // done marker is republished: the claim board may have been wiped, or the
  // worker may have died between journal append and marker.
  std::vector<std::size_t> pending;
  pending.reserve(cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const JournalRow* row = nullptr;
    if (journal != nullptr) {
      const auto it = journal->rows().find(cells[i].id.key());
      if (it != journal->rows().end()) row = &it->second;
    }
    if (row != nullptr && (row->ok() || options.keepErrors)) {
      if (gate != nullptr) gate->board.markDone(i, row->status);
      result.outcomes[i] = outcomeFromRow(*row);
      ++result.journaledCells;
      if (options.onCell) options.onCell(i, result.outcomes[i]);
    } else {
      pending.push_back(i);
    }
  }

  std::mutex mutex;  // guards result and the gate bookkeeping below
  std::condition_variable settled;
  std::size_t outstanding = 0;       // submitted cells not yet returned
  std::vector<std::size_t> busy;     // cells a rival held when we tried them
  std::vector<std::size_t> running;  // cells whose claim we hold while they run
  bool progressed = false;           // the fleet moved since the gate last looked

  // Claims cell `index` for this worker; false when it is not ours to run.
  const auto claim = [&](std::size_t index) {
    const ClaimOutcome claimed = gate->board.tryClaim(index);
    if (claimed.status == ClaimStatus::Acquired && shutdownRequested()) {
      // Drain: hand the cell straight back to the fleet instead of leaving a
      // claim that rivals would have to wait out.
      gate->board.release(index);
      return false;
    }
    const std::lock_guard<std::mutex> lock{mutex};
    if (claimed.status == ClaimStatus::Busy) {
      busy.push_back(index);
      return false;
    }
    progressed = true;
    if (claimed.status == ClaimStatus::Done) {
      ++result.doneElsewhere;
      return false;
    }
    if (claimed.stolen) ++result.steals;
    running.push_back(index);
    return true;
  };

  const auto runCell = [&](std::size_t index) {
    // Shutdown drain: stop starting cells; this one stays Skipped.
    if (shutdownRequested()) return;
    if (gate != nullptr && !claim(index)) return;
    CellOutcome outcome = executeCell(cells[index], index, options, compute);
    if (journal != nullptr) journal->append(rowFromOutcome(cells[index], outcome));
    // Journal first, done marker second: a crash in between leaves the cell
    // claimable, and the recompute's byte-identical row dedups at merge.
    if (gate != nullptr) gate->board.markDone(index, statusName(outcome.status));
    const std::lock_guard<std::mutex> lock{mutex};
    std::erase(running, index);
    progressed = true;
    ++result.computedCells;
    result.outcomes[index] = std::move(outcome);
    if (options.onCell) options.onCell(index, result.outcomes[index]);
  };

  const auto settle = [&] {
    const std::lock_guard<std::mutex> lock{mutex};
    --outstanding;
    settled.notify_all();
  };

  // Declared after everything its tasks touch, so an exception unwinding
  // this frame drains the pool while that state is still alive.
  support::TaskPool pool{support::threadsForTasks(options.threads, pending.size())};
  // threads == 1 runs each task inline inside submit(), so a serial
  // campaign walks (and claims) the grid strictly in index order.
  const auto submit = [&](std::size_t index) {
    {
      const std::lock_guard<std::mutex> lock{mutex};
      ++outstanding;
    }
    pool.submit([&, index] {
      try {
        runCell(index);
      } catch (...) {
        settle();
        throw;  // infrastructure error: rethrown by pool.wait()
      }
      settle();
    });
  };
  for (const std::size_t index : pending) submit(index);

  if (gate != nullptr) {
    // Until every submitted cell returned and no rival holds a cell we
    // still need: refresh the claims of running cells and retry busy cells
    // once per poll interval.
    const auto poll = std::chrono::microseconds{static_cast<long long>(gate->pollMs * 1000.0)};
    Clock::time_point lastProgress = Clock::now();
    std::unique_lock<std::mutex> lock{mutex};
    for (;;) {
      const bool drained = settled.wait_for(lock, poll, [&] { return outstanding == 0; });
      if (progressed) {
        progressed = false;
        lastProgress = Clock::now();
      }
      if (shutdownRequested()) busy.clear();  // the drain leaves them Skipped
      if (drained && busy.empty()) break;
      const std::chrono::duration<double, std::milli> idle = Clock::now() - lastProgress;
      if (drained && gate->maxWaitMs > 0.0 && idle.count() > gate->maxWaitMs) {
        result.timedOut = true;
        break;
      }
      std::vector<std::size_t> retry;
      retry.swap(busy);
      const std::vector<std::size_t> beats = running;
      lock.unlock();
      for (const std::size_t index : beats) gate->board.heartbeat(index);
      // Nothing runs here: give the rivals holding the remaining cells one
      // poll interval to finish them or let their leases lapse.
      if (drained && !backoffSleep(gate->pollMs)) retry.clear();
      std::sort(retry.begin(), retry.end());
      for (const std::size_t index : retry) submit(index);
      lock.lock();
    }
  }
  pool.wait();

  for (const CellOutcome& outcome : result.outcomes) {
    switch (outcome.status) {
      case CellStatus::Ok:
        ++result.okCells;
        break;
      case CellStatus::Error:
        ++result.errorCells;
        break;
      case CellStatus::Timeout:
        ++result.timeoutCells;
        break;
      case CellStatus::Skipped:
        ++result.skippedCells;
        break;
    }
  }
  result.skippedCells -= result.doneElsewhere;  // their outcomes live in other journals
  result.interrupted = shutdownRequested();
  const std::chrono::duration<double, std::milli> wall = Clock::now() - campaignStart;
  result.wallMs = wall.count();
  return result;
}

CheckResult checkJournal(const std::vector<Cell>& cells, const Journal& journal,
                         std::size_t sampleSize, const CellFn& compute) {
  CheckResult check;
  std::vector<std::size_t> journaled;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto it = journal.rows().find(cells[i].id.key());
    if (it != journal.rows().end() && it->second.ok()) journaled.push_back(i);
  }
  if (journaled.empty() || sampleSize == 0) return check;

  // Deterministic spread over the grid: every check run on the same journal
  // re-executes the same cells, and the sample covers the grid's extremes
  // instead of clustering at the front.
  std::vector<std::size_t> sample;
  if (journaled.size() <= sampleSize) {
    sample = journaled;
  } else {
    for (std::size_t k = 0; k < sampleSize; ++k) {
      sample.push_back(journaled[k * journaled.size() / sampleSize]);
    }
  }

  for (const std::size_t index : sample) {
    const Cell& cell = cells[index];
    const JournalRow& row = journal.rows().at(cell.id.key());
    CellContext context;
    context.index = index;
    context.attempt = 1;
    context.start = std::chrono::steady_clock::now();
    const support::JsonValue recomputed = compute(cell, context);
    ++check.checkedCells;
    const std::string journaledLine = row.payload.dumpLine();
    const std::string recomputedLine = recomputed.dumpLine();
    if (journaledLine != recomputedLine) {
      check.mismatches.push_back(cell.id.key() + ": journaled " + journaledLine +
                                 " != recomputed " + recomputedLine);
    }
  }
  return check;
}

void requestShutdown() noexcept {
  g_shutdownRequested.store(true, std::memory_order_release);
}

bool shutdownRequested() noexcept {
  return g_shutdownRequested.load(std::memory_order_acquire);
}

void clearShutdownRequest() noexcept {
  g_shutdownRequested.store(false, std::memory_order_release);
  g_signalCount.store(0, std::memory_order_release);
}

ScopedSignalHandlers::ScopedSignalHandlers()
    : previousInt_(std::signal(SIGINT, &onShutdownSignal)),
      previousTerm_(std::signal(SIGTERM, &onShutdownSignal)) {
  // Deliberately does NOT clear a pre-set shutdown flag: tests simulate a
  // signal by calling requestShutdown() before entering the campaign.
  g_signalCount.store(0, std::memory_order_release);
}

ScopedSignalHandlers::~ScopedSignalHandlers() {
  std::signal(SIGINT, previousInt_);
  std::signal(SIGTERM, previousTerm_);
  // The campaign consumed the drain request; a later campaign in the same
  // process starts fresh.
  clearShutdownRequest();
}

}  // namespace rtlock::campaign
