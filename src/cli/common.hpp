// Internal plumbing shared by the rtlock subcommands.
//
// Everything here is CLI-private: commands include this header, the library
// proper never does.  The public surface is cli.hpp's runCli alone.
//
// Flags decode through the request schema (src/service/schema.hpp) and the
// report/key vocabulary lives in src/service/types.hpp, both shared with
// the serve front end.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "cli/cli.hpp"
#include "service/schema.hpp"
#include "support/diagnostics.hpp"
#include "support/json.hpp"

namespace rtlock::cli {

/// Usage-class failure (a flag typo, conflicting flags): kExitUsage at the
/// dispatch boundary, while plain support::Error (bad file, parse error) maps
/// to kExitError.
using UsageError = service::BadRequest;

/// Output streams for one invocation.  `out` carries the requested artifact
/// (tables, rendered reports); `err` carries diagnostics and progress.
struct CommandIo {
  std::ostream& out;
  std::ostream& err;
};

/// A subcommand: entry point plus the usage text `rtlock help <name>` prints.
struct Command {
  const char* name;
  const char* oneLiner;
  const char* usage;  // prose; the flag section comes from the command's field table
  int (*run)(const service::FieldValues& flags, CommandIo& io);  // flags from the table
};

/// The dispatch table, in help order.
[[nodiscard]] const std::vector<Command>& commandTable();

// Subcommand entry points (one translation unit each).
int runLockCommand(const service::FieldValues& flags, CommandIo& io);
int runAttackCommand(const service::FieldValues& flags, CommandIo& io);
int runEvalCommand(const service::FieldValues& flags, CommandIo& io);
int runWorkCommand(const service::FieldValues& flags, CommandIo& io);
int runMergeCommand(const service::FieldValues& flags, CommandIo& io);
int runReportCommand(const service::FieldValues& flags, CommandIo& io);
int runDesignsCommand(const service::FieldValues& flags, CommandIo& io);
int runLintCommand(const service::FieldValues& flags, CommandIo& io);
int runServeCommand(const service::FieldValues& flags, CommandIo& io);

// ---- file I/O -------------------------------------------------------------

[[nodiscard]] std::string readTextFile(const std::string& path);
void writeTextFile(const std::string& path, const std::string& text);

// ---- report rows ----------------------------------------------------------

// One metric row ({bench, config, metric, value, wall_ms}) and its JSON
// spelling — the BENCH_baseline.json schema, shared with the service layer.
using service::ReportRow;
using service::rowsToJson;

/// Renders rows as an aligned table or CSV on `out`.
void emitRows(std::ostream& out, const std::vector<ReportRow>& rows, bool csv);

/// Writes --report (the document) and --report-csv (the rows as CSV).
void writeReports(const service::FieldValues& flags, const support::JsonValue& document,
                  const std::vector<ReportRow>& rows, CommandIo& io);

// ---- key files (rtlock-key/v1) --------------------------------------------

using service::KeyFile;
using service::keyFileFromJson;
using service::keyFileToJson;
using service::ModuleKey;

}  // namespace rtlock::cli
