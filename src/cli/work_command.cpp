// `rtlock work` — one worker of a distributed eval campaign.
//
// Point any number of `rtlock work` processes (any hosts sharing a
// filesystem) at the same --manifest with the identical eval grid: the
// first one atomically creates the manifest, every worker claims cells
// through lease-based claim files, journals its results to its own journal
// under `<manifest>.journals/`, and each worker that sees the fleet
// converge prints the full merged report — byte-identical to what a
// single-process `rtlock eval` of the same grid prints.  A worker that dies
// mid-cell leaves a claim that expires after --lease-ms and is reclaimed by
// a surviving worker; the determinism contract makes any double compute
// merge away.  docs/CAMPAIGNS.md covers the manifest format, lease protocol
// and merge rules.
#include "campaign/runner.hpp"
#include "cli/common.hpp"
#include "service/api.hpp"
#include "support/strings.hpp"

namespace rtlock::cli {

int runWorkCommand(const std::vector<std::string>& args, CommandIo& io) {
  service::EvalRequest request;
  const support::CliArgs flags = parseEvalFlags(
      args, {"manifest", "owner", "lease-ms", "poll-ms", "max-wait-ms"}, request);
  const std::string inputPath = onePositional(flags, "input netlist (input.v)");
  if (!flags.has("manifest")) throw UsageError{"--manifest=PATH is required (the shared manifest)"};
  request.manifestPath = flags.get("manifest", "");
  request.workerId = flags.get("owner", "");
  request.leaseMs = flags.getDouble("lease-ms", 60000.0);
  request.pollMs = flags.getDouble("poll-ms", 50.0);
  if (request.pollMs <= 0.0) throw UsageError{"--poll-ms must be > 0"};
  request.maxWaitMs = flags.getDouble("max-wait-ms", 0.0);
  if (request.maxWaitMs < 0.0) throw UsageError{"--max-wait-ms must be >= 0"};
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
