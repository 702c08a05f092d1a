// Subcommand dispatch: usage text, help/version handling, error-to-exit-code
// mapping.  Each usage text is the prose below plus the flag section its
// command's field table renders (service/schema.hpp).
#include "cli/cli.hpp"

#include <ostream>
#include <string>
#include <vector>

#include "cli/common.hpp"
#include "service/build_info.hpp"

namespace rtlock::cli {

namespace {

constexpr const char* kLockUsage = R"(usage: rtlock lock <input.v> [flags]

Lock every module of a Verilog netlist and emit the locked netlist plus a
JSON key/provenance file (rtlock-key/v1).
)";

constexpr const char* kAttackUsage = R"(usage: rtlock attack <locked.v> [flags]

Run the oracle-less SnapShot-RTL attack against a locked netlist and report
the Key Prediction Accuracy.  Needs nothing but the netlist; --key scores
the predictions against the lock-time ground truth.
)";

constexpr const char* kEvalUsage = R"(usage: rtlock eval <input.v> [flags]

Chain lock -> attack over an (algorithm x seed) grid: each cell locks fresh
samples of the input module and attacks every one.  Cells run through the
fault-isolated campaign runner with substream determinism — results are
bit-identical at every --threads count, a throwing cell becomes a
structured error row instead of aborting the grid, and --journal makes the
campaign crash-safe and resumable (docs/CAMPAIGNS.md).

exit codes: 0 all cells ok, 3 some cells failed/timed out, 4 interrupted
(SIGINT/SIGTERM drain; resume with the same --journal).
)";

constexpr const char* kWorkUsage = R"(usage: rtlock work <input.v> --manifest=PATH [flags]

Run one worker of a distributed eval campaign.  Start any number of workers
(any hosts sharing a filesystem) against the same --manifest with the
identical grid flags: the first worker atomically creates the manifest,
every worker claims cells through lease-based claim files
(<manifest>.claims/), and each journals results to its own journal under
<manifest>.journals/.  A worker that dies mid-cell leaves a claim that
expires after --lease-ms and is reclaimed by a survivor; duplicate computes
merge away because every cell is a pure function of its identity.  Workers
that see the fleet converge print the full merged report — byte-identical
to a single-process `rtlock eval` of the same grid (docs/CAMPAIGNS.md).

exit codes: 0 fleet converged and every cell ok, 3 failed/timed-out cells
or fleet not converged, 4 interrupted (SIGINT/SIGTERM drain).
)";

constexpr const char* kMergeUsage = R"(usage: rtlock merge [journal...] [flags]

Union per-worker campaign journals into one view.  All journals must carry
the same campaign identity header (hard error otherwise).  Duplicate ok
rows for one cell must be byte-identical — the determinism contract — and
are deduplicated; differing ok payloads are a hard error.  An ok row
supersedes error/timeout rows for the same cell.

With --manifest the merged rows are rebuilt into the full eval report (byte-
identical to `rtlock eval` of the same grid); without it a summary table is
printed.  --out writes the merged view as a valid journal for replay via
`rtlock eval --journal=<out>`.

exit codes: 0 complete and all ok, 3 missing/failed cells, 1 identity or
determinism errors.
)";

constexpr const char* kLintUsage = R"(usage: rtlock lint <locked.v> [flags]

Static security analysis of a netlist: run the IR verifier (V1xx checks) and
the security lint (L2xx checks) over every module, then print the findings
and the static-resilience summary.  L201 "free key bit" findings are proofs:
the flagged bit's cone of influence reaches no output, so any guess for it
is correct.  Exits 1 when the verifier finds Error-severity problems.
)";

constexpr const char* kServeUsage = R"(usage: rtlock serve [flags]

Run the lock/attack/eval HTTP service.  One daemon holds a content-hash
session cache of parsed+verified+compiled designs, so repeated requests
against the same netlist skip the whole front half of the pipeline; response
bodies are bit-identical to the CLI's reports for the same inputs, warm or
cold (docs/SERVING.md).

endpoints:
  GET  /healthz    liveness + build identity
  GET  /v1/stats   session-cache and request counters
  POST /v1/lock    lock a netlist (JSON body with "source", "algo", ...)
  POST /v1/attack  SnapShot-RTL attack (rtlock-attack-report/v1 body)
  POST /v1/eval    (algorithm x seed) evaluation grid

exit codes: 0 clean drain (SIGINT/SIGTERM or --max-requests), 1 setup error.
)";

constexpr const char* kReportUsage = R"(usage: rtlock report <report.json> [flags]

Render any rows-schema report (attack/eval reports, BENCH_baseline.json) as
an aligned table or CSV.
)";

constexpr const char* kDesignsUsage = R"(usage: rtlock designs [flags]

List the built-in benchmark registry (the paper's 14 evaluation designs)
with lockability numbers, or dump one design as Verilog.
)";

[[nodiscard]] std::string usageOf(const Command& command) {
  return command.usage + service::schemaFor(command.name).flagHelp();
}

void printGlobalHelp(std::ostream& out) {
  out << "rtlock — ML-resilient RTL locking: lock, attack and evaluate Verilog designs\n\n"
         "usage: rtlock <command> [args]\n\ncommands:\n";
  for (const Command& command : commandTable()) {
    out << "  " << command.name << std::string(10 - std::string{command.name}.size(), ' ')
        << command.oneLiner << "\n";
  }
  out << "\nRun 'rtlock help <command>' (or rtlock <command> --help) for the flag reference;\n"
         "docs/CLI.md is the full manual.\n";
}

}  // namespace

const std::vector<Command>& commandTable() {
  static const std::vector<Command> table{
      {"lock", "lock a Verilog netlist, emit locked netlist + key JSON", kLockUsage,
       runLockCommand},
      {"attack", "SnapShot-RTL attack against a locked netlist (KPA report)", kAttackUsage,
       runAttackCommand},
      {"eval", "lock->attack seed grids over one design (experiment engine)", kEvalUsage,
       runEvalCommand},
      {"work", "one worker of a distributed eval campaign (shared manifest)", kWorkUsage,
       runWorkCommand},
      {"merge", "union per-worker campaign journals into one report", kMergeUsage,
       runMergeCommand},
      {"lint", "static IR verification + key-influence security lint", kLintUsage,
       runLintCommand},
      {"serve", "HTTP lock/attack/eval service with a warm session cache", kServeUsage,
       runServeCommand},
      {"report", "render a rows-schema report JSON as table/CSV", kReportUsage,
       runReportCommand},
      {"designs", "list the built-in benchmark registry / dump a design", kDesignsUsage,
       runDesignsCommand},
  };
  return table;
}

int runCli(int argc, const char* const* argv, std::ostream& out, std::ostream& err) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

  if (args.empty() || args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
    if (args.size() >= 2 && args[0] == "help") {
      for (const Command& command : commandTable()) {
        if (args[1] == command.name) {
          out << usageOf(command);
          return kExitOk;
        }
      }
      err << "rtlock: unknown command '" << args[1] << "'\n";
      printGlobalHelp(err);
      return kExitUsage;
    }
    printGlobalHelp(out);
    return args.empty() ? kExitUsage : kExitOk;
  }
  if (args[0] == "--version") {
    // generatorTag() is the same build-identity string /healthz and the
    // report documents' "generator" field carry.
    out << service::generatorTag() << "\n";
    return kExitOk;
  }

  for (const Command& command : commandTable()) {
    if (args[0] != command.name) continue;
    const std::vector<std::string> rest(args.begin() + 1, args.end());
    for (const std::string& arg : rest) {
      if (arg == "--help" || arg == "-h") {
        out << usageOf(command);
        return kExitOk;
      }
    }
    CommandIo io{out, err};
    try {
      return command.run(service::decodeFlags(service::schemaFor(command.name), rest), io);
    } catch (const service::BadRequest& error) {
      err << "rtlock " << command.name << ": " << error.what() << "\n\n" << usageOf(command);
      return kExitUsage;
    } catch (const std::exception& error) {
      err << "rtlock " << command.name << ": " << error.what() << "\n";
      return kExitError;
    }
  }

  err << "rtlock: unknown command '" << args[0] << "'\n";
  printGlobalHelp(err);
  return kExitUsage;
}

}  // namespace rtlock::cli
