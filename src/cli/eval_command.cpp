// `rtlock eval` — the paper's full lock→attack→report loop over a seed grid.
//
// Thin wrapper over service::runEval (shared with `rtlock serve`).  For
// every (algorithm, seed) cell the experiment engine locks fresh samples of
// the input module and attacks each one (attack::evaluateBenchmark).  Cells
// run through the campaign runner (src/campaign/): each cell draws only
// from Rng{s}.substream(a), so the grid is bit-identical at every --threads
// count, and — with --journal — a campaign killed at any point resumes to
// the same report.  A cell that throws becomes a structured error row
// instead of aborting the grid; campaigns with failed cells exit with
// kExitPartial, an interrupted (SIGINT/SIGTERM) drain with
// kExitInterrupted.  docs/CAMPAIGNS.md covers the journal format and the
// fault-injection harness.
//
// `rtlock work` — one worker of a distributed eval campaign — lives here too:
// it takes the same grid flags plus the manifest rows.  Any number of
// workers (any hosts sharing a filesystem) point at the same --manifest:
// the first creates it atomically, each claims cells through lease-based
// claim files and journals to `<manifest>.journals/`, and each that sees
// the fleet converge prints the merged report, byte-identical to a
// single-process `rtlock eval`.  A dead worker's claim expires after
// --lease-ms and a survivor reclaims it; the determinism contract makes any
// double compute merge away (docs/CAMPAIGNS.md).
#include "campaign/runner.hpp"
#include "cli/common.hpp"
#include "service/api.hpp"
#include "support/strings.hpp"

namespace rtlock::cli {

namespace {

/// The request the flags describe, with RTLOCK_FAULT_INJECT as the fault
/// plan.  Reads no file, so a usage error exits before the netlist is read.
[[nodiscard]] service::EvalRequest evalRequestFromFlags(const service::FieldValues& flags) {
  service::EvalRequest request = service::evalRequestFrom(flags);
  try {
    request.campaign.faults = campaign::FaultPlan::fromEnv();
  } catch (const support::Error& error) {
    throw UsageError{std::string{"RTLOCK_FAULT_INJECT: "} + error.what()};
  }
  return request;
}

void emitEvalReport(const service::FieldValues& flags, const service::EvalResponse& response,
                    const std::string& inputPath, CommandIo& io) {
  writeReports(flags, service::evalReportDocument(response, inputPath), response.rows, io);
  emitRows(io.out, response.rows, flags.flag("csv"));
}

/// kExitPartial (with a summary) when any cell ended in an error or timeout.
[[nodiscard]] int evalExitCode(const service::EvalResponse& response, CommandIo& io) {
  if (response.campaign.errorCells == 0 && response.campaign.timeoutCells == 0) return kExitOk;
  io.err << "partial campaign: " << response.campaign.errorCells << " error cell(s), "
         << response.campaign.timeoutCells << " timeout cell(s)\n";
  return kExitPartial;
}

}  // namespace

int runEvalCommand(const service::FieldValues& flags, CommandIo& io) {
  service::EvalRequest request = evalRequestFromFlags(flags);
  const std::string inputPath = flags.positional().front();
  const bool check = flags.flag("check");
  if (check && !flags.has("journal")) throw UsageError{"--check requires --journal"};
  request.source = readTextFile(inputPath);

  // From here on SIGINT/SIGTERM request a graceful drain (finish in-flight
  // cells, flush the journal, exit kExitInterrupted) instead of killing the
  // process mid-write; a second signal still exits immediately.
  const campaign::ScopedSignalHandlers signalGuard;
  service::SessionCache cache;
  const service::EvalResponse response = service::runEval(cache, request);

  io.err << "evaluating " << response.moduleName << ": " << request.algorithms.size()
         << " algorithm(s) x " << request.seeds.size() << " seed(s), " << request.samples
         << " locked sample(s) per cell\n";
  if (response.journaled) {
    io.err << "journal: " << request.journalPath << " (" << response.journalReloadedRows
           << " row(s) reloaded";
    if (response.journalTornTail) io.err << ", torn tail discarded";
    io.err << ")\n";
  }
  for (const std::string& line : response.cellErrors) io.err << line << "\n";

  if (response.campaign.interrupted) {
    io.err << "interrupted: " << response.campaign.okCells << " cell(s) done, "
           << response.campaign.skippedCells << " not started";
    if (response.journaled) {
      io.err << "; resume with --journal " << request.journalPath;
    }
    io.err << "\n";
    return kExitInterrupted;
  }

  emitEvalReport(flags, response, inputPath, io);
  io.err << response.cells.size() << " grid cell(s) (" << response.campaign.journaledCells
         << " from journal) in " << support::formatDouble(response.campaign.wallMs, 0) << " ms\n";

  if (check && response.journaled) {
    for (const std::string& mismatch : response.checkMismatches) {
      io.err << "check mismatch: " << mismatch << "\n";
    }
    if (!response.checkMismatches.empty()) {
      io.err << "check: " << response.checkMismatches.size() << " of " << response.checkedCells
             << " recomputed cell(s) diverged from the journal\n";
      return kExitError;
    }
    io.err << "check: " << response.checkedCells << " cell(s) recomputed, all byte-identical\n";
  }
  return evalExitCode(response, io);
}

int runWorkCommand(const service::FieldValues& flags, CommandIo& io) {
  if (!flags.has("manifest")) throw UsageError{"--manifest=PATH is required (the shared manifest)"};
  service::EvalRequest request = evalRequestFromFlags(flags);
  const std::string inputPath = flags.positional().front();
  request.source = readTextFile(inputPath);

  const campaign::ScopedSignalHandlers signalGuard;
  service::SessionCache cache;
  const service::EvalResponse response = service::runEval(cache, request);
  const campaign::CampaignResult& run = response.campaign;

  io.err << "worker " << (request.workerId.empty() ? "(auto)" : request.workerId) << ": manifest "
         << request.manifestPath << ", " << response.cells.size() << " cell(s)\n";
  io.err << "computed " << run.computedCells << " cell(s), " << run.journaledCells
         << " from own journal, " << run.steals << " stale lease(s) reclaimed\n";
  for (const std::string& line : response.cellErrors) io.err << line << "\n";

  if (run.interrupted) {
    io.err << "interrupted: rerun this worker to resume its journal\n";
    return kExitInterrupted;
  }
  if (!run.allDone()) {
    io.err << "fleet not converged: " << run.okCells << " ok, " << run.errorCells << " error, "
           << run.timeoutCells << " timeout here, " << run.doneElsewhere
           << " done by other workers, " << run.skippedCells << " unfinished";
    if (run.timedOut) io.err << " (no progress for --max-wait-ms)";
    io.err << " — rerun against the manifest, or merge what exists with rtlock merge\n";
    return kExitPartial;
  }

  emitEvalReport(flags, response, inputPath, io);
  io.err << "fleet converged: " << response.cells.size() << " grid cell(s) merged from "
         << response.mergedJournals.size() << " journal(s) in "
         << support::formatDouble(run.wallMs, 0) << " ms\n";
  return evalExitCode(response, io);
}

}  // namespace rtlock::cli
