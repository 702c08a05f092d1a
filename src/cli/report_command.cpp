// `rtlock report` — render any rows-schema report JSON (attack/eval reports,
// BENCH_baseline.json) as an aligned table or CSV, with optional filters.
#include "cli/common.hpp"
#include "support/strings.hpp"

namespace rtlock::cli {

int runReportCommand(const service::FieldValues& flags, CommandIo& io) {
  const std::string inputPath = flags.positional().front();

  const support::JsonValue document = support::parseJson(readTextFile(inputPath));
  const support::JsonValue* rowsValue = document.find("rows");
  if (rowsValue == nullptr || !rowsValue->isArray()) {
    throw support::Error{inputPath + " is not a rows-schema report (no \"rows\" array)"};
  }
  if (const support::JsonValue* schema = document.find("schema")) {
    io.err << "schema: " << schema->asString() << "\n";
  }

  const bool filterBench = flags.has("bench");
  const bool filterMetric = flags.has("metric");
  const bool filterConfig = flags.has("config");
  const std::string wantBench = flags.text("bench");
  const std::string wantMetric = flags.text("metric");
  const std::string wantConfig = flags.text("config");

  std::vector<ReportRow> rows;
  for (const support::JsonValue& entry : rowsValue->asArray()) {
    ReportRow row;
    row.bench = entry.at("bench").asString();
    row.config = entry.at("config").asString();
    row.metric = entry.at("metric").asString();
    row.value = entry.at("value").asDouble();
    if (const support::JsonValue* wall = entry.find("wall_ms")) row.wallMs = wall->asDouble();
    if (filterBench && row.bench != wantBench) continue;
    if (filterMetric && row.metric != wantMetric) continue;
    if (filterConfig && row.config.find(wantConfig) == std::string::npos) continue;
    rows.push_back(std::move(row));
  }
  if (rows.empty()) throw support::Error{"no rows match the requested filters"};

  emitRows(io.out, rows, flags.flag("csv"));
  io.err << rows.size() << " row(s)\n";
  return kExitOk;
}

}  // namespace rtlock::cli
