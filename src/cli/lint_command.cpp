// `rtlock lint` — static security analysis of a (locked) netlist.
//
// Runs both analysis tiers over every module of the input: the Tier A IR
// verifier (rendered for completeness — parseDesign already rejected
// Error-severity input, so what remains here are warnings) and the Tier B
// security lint, which reports provably free key bits, constant-propagation
// removable muxes and identical-arm mux shells, condensed into the static
// resilience summary.  Rows follow the BENCH_baseline.json schema so the
// output feeds the same `rtlock report` tooling as every other command.
#include <chrono>
#include <iterator>

#include "analysis/lint.hpp"
#include "analysis/verifier.hpp"
#include "cli/common.hpp"
#include "support/strings.hpp"
#include "verilog/parser.hpp"

namespace rtlock::cli {

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double elapsedMs(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

[[nodiscard]] support::JsonValue findingsToJson(
    const std::vector<analysis::Diagnostic>& findings) {
  support::JsonArray array;
  array.reserve(findings.size());
  for (const analysis::Diagnostic& finding : findings) {
    support::JsonValue entry;
    entry.set("code", analysis::checkCode(finding.check));
    entry.set("check", analysis::checkName(finding.check));
    entry.set("severity", analysis::severityName(finding.severity));
    entry.set("module", finding.module);
    entry.set("context", finding.context);
    entry.set("message", finding.message);
    array.push_back(std::move(entry));
  }
  return support::JsonValue{std::move(array)};
}

}  // namespace

int runLintCommand(const service::FieldValues& flags, CommandIo& io) {
  const std::string inputPath = flags.positional().front();
  const bool noWall = flags.flag("no-wall");

  verilog::ParserOptions parserOptions;
  parserOptions.keyPortName = flags.text("key-port");
  rtl::Design design = verilog::parseDesign(readTextFile(inputPath), parserOptions);

  std::vector<const rtl::Module*> modules;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < design.moduleCount(); ++i) {
    names.push_back(design.module(i).name());
    if (!flags.has("module") || names.back() == flags.text("module")) {
      modules.push_back(&design.module(i));
    }
  }
  if (flags.has("module") && modules.empty()) {
    throw support::Error{"no module named \"" + flags.text("module") + "\" (design has: " +
                         support::join(names, ", ") + ")"};
  }

  std::vector<analysis::Diagnostic> findings;
  std::vector<ReportRow> rows;
  bool sawErrors = false;
  for (const rtl::Module* module : modules) {
    const auto started = Clock::now();
    std::vector<analysis::Diagnostic> moduleFindings = analysis::verify(*module);
    const int verifierErrors =
        analysis::countWithSeverity(moduleFindings, analysis::Severity::Error);
    const int verifierWarnings =
        analysis::countWithSeverity(moduleFindings, analysis::Severity::Warning);
    sawErrors = sawErrors || verifierErrors > 0;

    const analysis::LintReport lint = analysis::lintLocked(*module);
    moduleFindings.insert(moduleFindings.end(), lint.findings.begin(), lint.findings.end());
    const double wallMs = noWall ? 0.0 : elapsedMs(started);

    const std::string bench = module->name();
    const auto metric = [&](const char* name, double value, double wall = 0.0) {
      rows.push_back({bench, "lint", name, value, wall});
    };
    metric("key_width", static_cast<double>(lint.summary.keyWidth), wallMs);
    metric("key_muxes", static_cast<double>(lint.summary.keyMuxes));
    metric("free_key_bits", static_cast<double>(lint.summary.freeKeyBits));
    metric("constant_select_muxes", static_cast<double>(lint.summary.constantSelectMuxes));
    metric("identical_arm_muxes", static_cast<double>(lint.summary.identicalArmMuxes));
    metric("static_resilience_percent", lint.summary.staticResiliencePercent);
    metric("verifier_errors", static_cast<double>(verifierErrors));
    metric("verifier_warnings", static_cast<double>(verifierWarnings));

    findings.insert(findings.end(), std::make_move_iterator(moduleFindings.begin()),
                    std::make_move_iterator(moduleFindings.end()));
  }

  support::JsonValue document;
  document.set("schema", "rtlock-lint-report/v1");
  document.set("input", inputPath);
  document.set("findings", findingsToJson(findings));
  document.set("rows", rowsToJson(rows));

  writeReports(flags, document, rows, io);
  if (flags.flag("json")) {
    io.out << document.dump() << "\n";
  } else {
    for (const analysis::Diagnostic& finding : findings) {
      io.out << analysis::describe(finding) << "\n";
    }
    if (!findings.empty()) io.out << "\n";
    emitRows(io.out, rows, flags.flag("csv"));
  }
  io.err << findings.size() << " finding(s) across " << modules.size() << " module(s)\n";
  return sawErrors ? kExitError : kExitOk;
}

}  // namespace rtlock::cli
