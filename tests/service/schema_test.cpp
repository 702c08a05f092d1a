// The request schema: the accepted flag and JSON field sets, the rows'
// defaults against their own bounds, and the manuals against the tables.
#include "service/schema.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace rtlock::service {
namespace {

[[nodiscard]] std::set<std::string> flagSet(const Schema& schema) {
  std::set<std::string> names;
  for (const Field& field : schema.fields) {
    if ((field.surface & kCli) != 0) names.emplace(field.name);
  }
  return names;
}

[[nodiscard]] std::set<std::string> jsonSet(const Schema& schema) {
  std::set<std::string> names;
  for (const Field& field : schema.fields) {
    if ((field.surface & kJson) != 0) names.insert(field.jsonSpelling());
  }
  return names;
}

TEST(SchemaTest, FlagSetsArePinned) {
  const std::set<std::string> evalGrid{
      "algos",   "seeds",       "samples",  "rounds",  "budget",      "folds",
      "module",  "key-port",    "threads",  "report",  "report-csv",  "csv",
      "no-wall", "journal",     "retries",  "extended-features",      "deadline-ms",
      "verify-functional"};
  std::set<std::string> eval = evalGrid;
  eval.insert({"keep-errors", "check", "check-cells"});
  std::set<std::string> work = evalGrid;
  work.insert({"manifest", "owner", "lease-ms", "poll-ms", "max-wait-ms"});
  const std::map<std::string, std::set<std::string>> expected{
      {"lock", {"algo", "budget", "seed", "out", "key-out", "key-port", "csv", "no-banner"}},
      {"attack",
       {"key", "module", "key-port", "rounds", "relock-budget", "folds", "repeats", "seed",
        "threads", "extended-features", "report", "report-csv", "csv", "no-wall"}},
      {"eval", eval},
      {"work", work},
      {"merge", {"journals-dir", "out", "manifest", "report", "report-csv", "csv", "no-wall"}},
      {"lint", {"module", "key-port", "report", "report-csv", "csv", "json", "no-wall"}},
      {"serve",
       {"host", "port", "threads", "queue", "deadline-ms", "cache-mb", "max-body-mb",
        "max-requests", "socket-timeout-ms"}},
      {"report", {"csv", "bench", "metric", "config"}},
      {"designs", {"csv", "emit"}},
  };
  ASSERT_EQ(allSchemas().size(), expected.size());
  for (const auto& [command, flags] : expected) {
    EXPECT_EQ(flagSet(schemaFor(command)), flags) << command;
  }
}

TEST(SchemaTest, JsonFieldSetsArePinned) {
  const std::set<std::string> eval{"source", "key_port",          "label",  "module",
                                   "algos",  "seeds",             "samples", "rounds",
                                   "budget", "folds",             "extended_features",
                                   "no_wall"};
  std::set<std::string> manifest = eval;
  manifest.insert({"manifest", "worker_id", "journal", "lease_ms", "poll_ms", "max_wait_ms"});
  EXPECT_EQ(jsonSet(schemaFor("lock")),
            (std::set<std::string>{"source", "key_port", "label", "algo", "budget", "seed",
                                   "no_banner"}));
  EXPECT_EQ(jsonSet(schemaFor("attack")),
            (std::set<std::string>{"source", "key_port", "label", "module", "key", "rounds",
                                   "relock_budget", "folds", "extended_features", "repeats",
                                   "seed", "no_wall"}));
  EXPECT_EQ(jsonSet(schemaFor("eval")), eval);
  EXPECT_EQ(jsonSet(schemaFor("work")), manifest);
}

TEST(SchemaTest, DefaultsDecodeWithinTheirOwnBounds) {
  for (const Schema& schema : allSchemas()) {
    const FieldValues defaults{schema};
    for (const Field& field : schema.fields) {
      if (field.kind != FieldKind::Count) continue;
      EXPECT_NO_THROW(checkRange(field, static_cast<double>(defaults.count(field.name)), "x"))
          << schema.command << " --" << field.name;
    }
  }
  // The builders parse and validate every default.
  EXPECT_NO_THROW((void)lockRequestFrom(FieldValues{schemaFor("lock")}));
  EXPECT_NO_THROW((void)attackRequestFrom(FieldValues{schemaFor("attack")}));
  EXPECT_NO_THROW((void)evalRequestFrom(FieldValues{schemaFor("eval")}));
  // work's manifest is required and has no default: empty, it would run a
  // plain eval.  Every other work default decodes.
  FieldValues work{schemaFor("work")};
  EXPECT_THROW((void)evalRequestFrom(work), BadRequest);
  work.set(schemaFor("work").at("manifest"), std::string{"fleet.manifest"});
  EXPECT_NO_THROW((void)evalRequestFrom(work));
}

TEST(SchemaTest, MillisecondRowsAreBoundedIntegers) {
  for (const Schema& schema : allSchemas()) {
    for (const Field& field : schema.fields) {
      const std::string_view name = field.name;
      if (name.size() < 3 || name.substr(name.size() - 3) != "-ms") continue;
      EXPECT_EQ(field.kind, FieldKind::Count) << schema.command << " --" << name;
      EXPECT_EQ(field.max, kMaxMillis) << schema.command << " --" << name;
    }
  }
}

TEST(SchemaTest, UsageListsEveryFlagWithItsDefault) {
  const std::string help = schemaFor("serve").flagHelp();
  EXPECT_EQ(help.rfind("\nflags:\n", 0), 0u);
  EXPECT_NE(help.find("--queue=N"), std::string::npos);
  EXPECT_NE(help.find("(default 64)"), std::string::npos);
  for (const Schema& schema : allSchemas()) {
    const std::string text = schema.flagHelp();
    for (const Field& field : schema.fields) {
      const bool listed = text.find("  --" + std::string{field.name}) != std::string::npos;
      EXPECT_EQ(listed, (field.surface & kCli) != 0) << schema.command << " " << field.name;
    }
    std::istringstream lines{text};
    for (std::string line; std::getline(lines, line);) {
      EXPECT_LE(line.size(), 79u) << schema.command << ": " << line;
    }
  }
}

// ---- the manuals ------------------------------------------------------------

[[nodiscard]] std::string readDoc(const std::string& name) {
  std::ifstream in{std::string{RTLOCK_DOCS_DIR} + "/" + name};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The text between "## rtlock <command>" and the next "## " heading.
[[nodiscard]] std::string sectionOf(const std::string& doc, const std::string& command) {
  const std::string heading = "\n## rtlock " + command + "\n";
  const std::size_t start = doc.find(heading);
  if (start == std::string::npos) return {};
  const std::size_t end = doc.find("\n## ", start + heading.size());
  return doc.substr(start, end == std::string::npos ? std::string::npos : end - start);
}

/// The cells, backticks dropped, of the first table line in `text` that
/// starts with `prefix` once its backticks are dropped.
[[nodiscard]] std::vector<std::string> tableRow(const std::string& text,
                                                const std::string& prefix) {
  std::istringstream lines{text};
  for (std::string line; std::getline(lines, line);) {
    line.erase(std::remove(line.begin(), line.end(), '`'), line.end());
    if (line.rfind(prefix, 0) != 0) continue;
    std::vector<std::string> cells;
    std::istringstream parts{line.substr(1)};
    for (std::string cell; std::getline(parts, cell, '|');) {
      const std::size_t first = cell.find_first_not_of(' ');
      const std::size_t last = cell.find_last_not_of(' ');
      cells.push_back(first == std::string::npos ? "" : cell.substr(first, last - first + 1));
    }
    return cells;
  }
  return {};
}

[[nodiscard]] std::string docDefault(const Field& field, bool json) {
  if (json && field.kind == FieldKind::Flag) return "false";
  const std::string shown = field.shownDefault();
  return shown.empty() ? "—" : shown;
}

TEST(SchemaDocsTest, CliManualListsEveryFlagWithItsDefault) {
  const std::string manual = readDoc("CLI.md");
  ASSERT_FALSE(manual.empty()) << "docs/CLI.md not found under " << RTLOCK_DOCS_DIR;
  const Schema& eval = schemaFor("eval");
  for (const Schema& schema : allSchemas()) {
    const std::string section = sectionOf(manual, std::string{schema.command});
    ASSERT_FALSE(section.empty()) << "no section for rtlock " << schema.command;
    for (const Field& field : schema.fields) {
      if ((field.surface & kCli) == 0) continue;
      const std::string flag = "| --" + std::string{field.name};
      std::vector<std::string> cells = tableRow(section, flag + "=");
      if (cells.empty()) cells = tableRow(section, flag + " ");
      // `rtlock work` documents its own rows and points at eval's table for
      // the grid rows it shares word for word.
      const Field* shared = eval.find(field.name);
      if (cells.empty() && schema.command == "work" && shared != nullptr &&
          shared->shownDefault() == field.shownDefault()) {
        cells = tableRow(sectionOf(manual, "eval"), flag + "=");
        if (cells.empty()) cells = tableRow(sectionOf(manual, "eval"), flag + " ");
      }
      ASSERT_GE(cells.size(), 2u) << "rtlock " << schema.command << ": --" << field.name
                                  << " is missing from docs/CLI.md";
      EXPECT_EQ(cells[1], docDefault(field, false))
          << "rtlock " << schema.command << ": default of --" << field.name;
    }
  }
}

TEST(SchemaDocsTest, ServingManualListsEveryFieldWithItsDefault) {
  const std::string manual = readDoc("SERVING.md");
  ASSERT_FALSE(manual.empty()) << "docs/SERVING.md not found under " << RTLOCK_DOCS_DIR;
  const std::map<std::string, std::string> endpoints{
      {"lock", "lock"}, {"attack", "attack"}, {"eval", "eval"}, {"work", "eval"}};
  for (const auto& [command, endpoint] : endpoints) {
    for (const Field& field : schemaFor(command).fields) {
      if ((field.surface & kJson) == 0) continue;
      const std::string name = field.jsonSpelling();
      const std::vector<std::string> cells = tableRow(manual, "| " + name + " |");
      ASSERT_GE(cells.size(), 3u) << name << " is missing from the docs/SERVING.md field table";
      EXPECT_NE(cells[1].find(endpoint), std::string::npos) << name << " on /v1/" << endpoint;
      // Fields whose default differs per endpoint list them as "a / b".
      std::vector<std::string> defaults;
      std::size_t start = 0;
      for (std::size_t slash; (slash = cells[2].find(" / ", start)) != std::string::npos;
           start = slash + 3) {
        defaults.push_back(cells[2].substr(start, slash - start));
      }
      defaults.push_back(cells[2].substr(start));
      EXPECT_NE(std::find(defaults.begin(), defaults.end(), docDefault(field, true)),
                defaults.end())
          << name << " on /v1/" << endpoint << ": expected default " << docDefault(field, true)
          << ", documented " << cells[2];
    }
  }
}

}  // namespace
}  // namespace rtlock::service
