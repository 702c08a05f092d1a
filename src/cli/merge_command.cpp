// `rtlock merge` — union per-worker campaign journals into one view.
//
// Journals name themselves: each carries the campaign identity header, so
// the merge needs no re-parse of the design.  Identity mismatches are hard
// errors (never a silent union of unrelated campaigns), duplicate ok rows
// must be byte-identical (determinism violation otherwise), and an ok row
// supersedes failures for the same cell — the rules live in
// src/campaign/merge.hpp.  With --manifest the merged rows are rebuilt into
// the full eval report through the same row builder `rtlock eval` uses, so
// the printed table is byte-identical to the single-process run; with --out
// the merged view is written as a valid journal that `rtlock eval
// --journal=<out>` replays without recomputing anything.
#include <algorithm>

#include "campaign/manifest.hpp"
#include "campaign/merge.hpp"
#include "campaign/runner.hpp"
#include "cli/common.hpp"
#include "service/api.hpp"
#include "support/strings.hpp"

namespace rtlock::cli {

int runMergeCommand(const service::FieldValues& flags, CommandIo& io) {
  std::vector<std::string> journals = flags.positional();
  if (flags.has("journals-dir")) {
    for (std::string& path : campaign::listJournals(flags.text("journals-dir"))) {
      journals.push_back(std::move(path));
    }
  }
  if (journals.empty() && flags.has("manifest")) {
    // Default to the manifest's conventional journal directory.
    for (std::string& path :
         campaign::listJournals(campaign::journalsDirFor(flags.text("manifest")))) {
      journals.push_back(std::move(path));
    }
  }
  std::sort(journals.begin(), journals.end());
  journals.erase(std::unique(journals.begin(), journals.end()), journals.end());
  if (journals.empty()) {
    throw UsageError{
        "no journals to merge: list them as positionals, or pass --journals-dir=DIR or "
        "--manifest=PATH"};
  }

  const campaign::MergeResult merged = campaign::mergeJournals(journals);
  io.err << "merged " << merged.stats.journals << " journal(s): " << merged.stats.okRows
         << " ok, " << merged.stats.errorRows << " error, " << merged.stats.timeoutRows
         << " timeout cell(s); " << merged.stats.duplicatesDropped << " duplicate row(s) dropped, "
         << merged.stats.supersededFailures << " failure(s) superseded by ok rows";
  if (merged.stats.tornTails > 0) {
    io.err << "; " << merged.stats.tornTails << " torn tail(s) discarded";
  }
  io.err << "\n";

  if (flags.has("out")) {
    campaign::writeMergedJournal(flags.text("out"), merged);
    io.err << "merged journal: " << flags.text("out") << " (replay with rtlock eval --journal="
           << flags.text("out") << ")\n";
  }

  std::size_t missingCells = 0;
  std::vector<ReportRow> rows;
  std::string moduleName = merged.identity.design;
  if (flags.has("manifest")) {
    const campaign::Manifest manifest = campaign::readManifest(flags.text("manifest"));
    if (manifest.identity.designHash != merged.identity.designHash ||
        manifest.identity.configHash != merged.identity.configHash) {
      throw support::Error{"manifest " + flags.text("manifest") +
                           " describes a different campaign than the merged journals "
                           "(design_hash/config_hash mismatch)"};
    }
    moduleName = manifest.identity.design;

    // Rebuild the full eval report from the merged rows — the same builder
    // `rtlock eval` and `rtlock work` use, hence the same bytes.
    std::vector<campaign::CellOutcome> outcomes(manifest.cells.size());
    std::vector<bool> present(manifest.cells.size(), false);
    for (std::size_t i = 0; i < manifest.cells.size(); ++i) {
      const auto it = merged.rows.find(manifest.cells[i].id.key());
      if (it == merged.rows.end()) {
        ++missingCells;
        io.err << "missing cell: " << manifest.cells[i].label << "\n";
        continue;
      }
      outcomes[i] = campaign::outcomeFromRow(it->second);
      present[i] = true;
    }
    rows = service::evalReportRows(
        moduleName, manifest.setup, manifest.cells,
        [&](std::size_t i) -> const campaign::CellOutcome* {
          return present[i] ? &outcomes[i] : nullptr;
        },
        !flags.flag("no-wall"));
  } else {
    // No manifest: a summary table of the merged view (the full report needs
    // the manifest's grid order and setup text).
    const auto statRow = [&](const char* metric, std::size_t value) {
      rows.push_back({moduleName, "merge", metric, static_cast<double>(value), 0.0});
    };
    statRow("journals", merged.stats.journals);
    statRow("ok_cells", merged.stats.okRows);
    statRow("error_cells", merged.stats.errorRows);
    statRow("timeout_cells", merged.stats.timeoutRows);
    statRow("duplicates_dropped", merged.stats.duplicatesDropped);
    statRow("superseded_failures", merged.stats.supersededFailures);
    statRow("torn_tails", merged.stats.tornTails);
  }

  service::EvalResponse report;  // evalReportDocument needs only module + rows
  report.moduleName = moduleName;
  report.rows = rows;
  writeReports(flags, service::evalReportDocument(report, "merge"), rows, io);
  emitRows(io.out, rows, flags.flag("csv"));

  if (missingCells > 0) {
    io.err << "partial merge: " << missingCells << " manifest cell(s) have no journal row yet\n";
    return kExitPartial;
  }
  if (merged.stats.errorRows > 0 || merged.stats.timeoutRows > 0) {
    io.err << "partial campaign: " << merged.stats.errorRows << " error cell(s), "
           << merged.stats.timeoutRows << " timeout cell(s)\n";
    return kExitPartial;
  }
  return kExitOk;
}

}  // namespace rtlock::cli
