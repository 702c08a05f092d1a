// rtlock — the end-to-end command-line tool over the library: one binary
// whose subcommands (cli/run.cpp's table) cover the paper's whole workflow
// on arbitrary user-supplied Verilog; docs/CLI.md is the manual.
//
// The entry point is a function, not main(): tests drive the CLI in-process
// through runCli with captured streams, and bin/main.cpp is a two-line shim.
#pragma once

#include <iosfwd>

namespace rtlock::cli {

/// Process exit codes, stable across releases (scripts depend on them).
inline constexpr int kExitOk = 0;     // success
inline constexpr int kExitError = 1;  // runtime failure: bad input file, parse error...
inline constexpr int kExitUsage = 2;  // usage error: unknown subcommand/flag, bad flag value
// Campaign outcomes (`rtlock eval`): the grid ran to completion but some
// cells failed (3), or a SIGINT/SIGTERM drain stopped the campaign early
// with the journal flushed for resume (4).
inline constexpr int kExitPartial = 3;      // campaign finished with error/timeout cells
inline constexpr int kExitInterrupted = 4;  // campaign drained after a shutdown request

/// Runs one CLI invocation.  argv follows main() conventions (argv[0] is the
/// program name, argv[1] the subcommand).  Normal output goes to `out`,
/// diagnostics and progress to `err`; nothing is written to the global
/// streams, and no exception escapes — failures map to the exit codes above.
[[nodiscard]] int runCli(int argc, const char* const* argv, std::ostream& out, std::ostream& err);

}  // namespace rtlock::cli
