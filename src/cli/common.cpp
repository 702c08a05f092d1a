#include "cli/common.hpp"

#include <fstream>
#include <sstream>

#include "support/strings.hpp"
#include "support/table.hpp"

namespace rtlock::cli {

std::string readTextFile(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw support::Error{"cannot open " + path};
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void writeTextFile(const std::string& path, const std::string& text) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw support::Error{"cannot open " + path + " for writing"};
  out << text;
  if (!out) throw support::Error{"failed writing " + path};
}

void writeReports(const service::FieldValues& flags, const support::JsonValue& document,
                  const std::vector<ReportRow>& rows, CommandIo& io) {
  if (flags.has("report")) {
    writeTextFile(flags.text("report"), document.dump());
    io.err << "report: " << flags.text("report") << "\n";
  }
  if (flags.has("report-csv")) {
    std::ostringstream csv;
    emitRows(csv, rows, /*csv=*/true);
    writeTextFile(flags.text("report-csv"), csv.str());
    io.err << "CSV report: " << flags.text("report-csv") << "\n";
  }
}

void emitRows(std::ostream& out, const std::vector<ReportRow>& rows, bool csv) {
  support::Table table{{"bench", "config", "metric", "value", "wall_ms"}};
  for (const ReportRow& row : rows) {
    table.addRow({row.bench, row.config, row.metric, support::formatDouble(row.value, 4),
                  support::formatDouble(row.wallMs, 2)});
  }
  if (csv) {
    table.renderCsv(out);
  } else {
    table.renderText(out);
  }
}

}  // namespace rtlock::cli
