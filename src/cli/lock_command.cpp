// `rtlock lock` — lock an arbitrary Verilog netlist and emit the locked
// netlist plus a JSON key/provenance file (rtlock-key/v1).
//
// Thin wrapper: flag parsing and file I/O here, the locking itself in
// service::runLock (shared with `rtlock serve`).  Every module of the design
// with at least one lockable operation is locked; module i draws from
// substream(i) of the seed's root stream, so adding or reordering modules
// never perturbs sibling keys.
#include "cli/common.hpp"
#include "service/api.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

namespace rtlock::cli {

namespace {

/// Derives the default output paths from the input: foo.v -> foo.locked.v
/// and foo.key.json.
[[nodiscard]] std::string stemOf(const std::string& inputPath) {
  const std::size_t dot = inputPath.rfind('.');
  const std::size_t slash = inputPath.find_last_of("/\\");
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) return inputPath;
  return inputPath.substr(0, dot);
}

}  // namespace

int runLockCommand(const service::FieldValues& flags, CommandIo& io) {
  const std::string inputPath = flags.positional().front();
  const std::string outPath =
      flags.has("out") ? flags.text("out") : stemOf(inputPath) + ".locked.v";
  const std::string keyOutPath =
      flags.has("key-out") ? flags.text("key-out") : stemOf(inputPath) + ".key.json";

  service::LockRequest request = service::lockRequestFrom(flags);
  request.source = readTextFile(inputPath);
  request.inputLabel = inputPath;

  service::SessionCache cache;
  const service::LockResponse response = service::runLock(cache, request);
  for (const std::string& note : response.notes) io.err << "note: " << note << "\n";

  writeTextFile(outPath, response.lockedVerilog);
  writeTextFile(keyOutPath, keyFileToJson(response.key).dump());

  support::Table table{{"module", "lockable_ops", "key_bits", "key_width", "M^g_sec", "M^r_sec"}};
  for (const service::LockModuleSummary& summary : response.modules) {
    table.addRow({summary.module, std::to_string(summary.lockableOps),
                  std::to_string(summary.bitsUsed), std::to_string(summary.keyWidth),
                  support::formatDouble(summary.globalMetric, 1),
                  support::formatDouble(summary.restrictedMetric, 1)});
  }
  if (flags.flag("csv")) {
    table.renderCsv(io.out);
  } else {
    table.renderText(io.out);
  }
  io.err << "locked netlist: " << outPath << "\nkey/provenance: " << keyOutPath << "\n";
  return kExitOk;
}

}  // namespace rtlock::cli
