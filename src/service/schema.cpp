#include "service/schema.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <optional>
#include <stdexcept>

#include "support/cli.hpp"
#include "support/strings.hpp"

namespace rtlock::service {

namespace {

using enum FieldKind;

constexpr std::uint64_t kNoMax = std::numeric_limits<std::uint64_t>::max();
constexpr std::string_view kEnvThreads = "RTLOCK_THREADS, else hardware";
constexpr std::string_view kInput = "input netlist (input.v)";

// Rows several commands share word for word.
const Field kSource{"source", Text, kJson, "", "", "the Verilog netlist text (required)"};
const Field kLabel{"label", Text, kJson, "<request>", "", "input label in key files and reports"};
const Field kKeyPort{"key-port", Text, kBoth, "lock_key", "NAME", "key input port name"};
const Field kFolds{"folds", Count, kBoth, "3", "N", "auto-ml cross-validation folds", "", 2, 1000};
const Field kExtended{"extended-features", Flag, kBoth, "", "", "structural locality features"};
const Field kThreads{"threads", Threads, kCli, "", "N", "worker threads", kEnvThreads, 0,
                     support::kMaxThreads};
const Field kReport{"report", Text, kCli, "", "PATH", "write the JSON report"};
const Field kReportCsv{"report-csv", Text, kCli, "", "PATH", "write the rows as CSV"};
const Field kNoWall{"no-wall", Flag, kBoth, "", "", "zero wall_ms in rows (byte-stable output)"};
const Field kCsv{"csv", Flag, kCli, "", "", "print the rows as CSV"};

[[nodiscard]] std::vector<Schema> buildSchemas() {
  // The (algorithm x seed) grid of `rtlock eval`; every `rtlock work` worker
  // of one manifest must pass it identically.
  const std::vector<Field> grid{
      {"algos", List, kBoth, "serial,hra,era", "LIST", "comma-separated algorithms"},
      {"seeds", List, kBoth, "1", "LIST", "seeds: 1,2,7 or ranges 1..5, at most 10000"},
      {"samples", Count, kBoth, "10", "N", "locked samples per cell", "", 1, kMaxSamples},
      {"rounds", Count, kBoth, "1000", "N", "training relock rounds", "", 1, kMaxRounds},
      {"budget", Text, kBoth, "75%", "SPEC", "key budget fraction, also the relock budget"},
      kFolds, kExtended,
      {"verify-functional", Flag, kCli, "", "", "simulate samples under their key; fail on a diff"},
      {"module", Text, kBoth, "", "NAME", "evaluate this module", "the only module"},
      kKeyPort, kThreads,
      {"retries", Count, kCli, "1", "N", "extra attempts per failing cell", "", 0, 100},
      {"deadline-ms", Count, kCli, "0", "N", "per-cell wall budget; overruns become timeout rows",
       "none", 0, kMaxMillis},
      kReport, kReportCsv, kNoWall, kCsv, kSource, kLabel,
  };
  std::vector<Field> eval = grid;
  eval.insert(eval.end(),
              {{"journal", Text, kCli, "", "PATH", "checkpoint cells to PATH; resume skips them"},
               {"keep-errors", Flag, kCli, "", "", "on resume, keep journaled error/timeout rows"},
               {"check", Flag, kCli, "", "", "re-run sampled journaled cells, byte-compare"},
               {"check-cells", Count, kCli, "3", "N", "sample size for --check"}});
  std::vector<Field> work{
      {"manifest", Text, kBoth, "", "PATH", "the shared work manifest (required)"},
      {"owner", Text, kBoth, "", "ID", "worker name", "<hostname>-<pid>", 0, kNoMax, "worker_id"},
      {"journal", Text, kBoth, "", "PATH", "own journal", "<manifest>.journals/<owner>.jsonl"},
      {"lease-ms", Count, kBoth, "60000", "N", "claim lease; 0 never reclaims", "", 0, kMaxMillis},
      {"poll-ms", Count, kBoth, "50", "N", "retry and heartbeat interval", "", 1, kMaxMillis},
      {"max-wait-ms", Count, kBoth, "0", "N", "give up after this long without fleet progress",
       "forever", 0, kMaxMillis},
  };
  work.insert(work.end(), grid.begin(), grid.end());

  const Field tableCsv{"csv", Flag, kCli, "", "", "CSV instead of the aligned table"};
  return {
      {"lock", kInput,
       {{"algo", Text, kBoth, "era", "NAME", "locking algorithm: serial|random|hra|greedy|era"},
        {"budget", Text, kBoth, "75%", "SPEC", "key budget: 50% or 0.5 of the ops, or 40 bits"},
        {"seed", Count, kBoth, "1", "N", "RNG seed; module i draws from substream(i)"},
        {"out", Text, kCli, "", "PATH", "locked netlist path", "<input>.locked.v"},
        {"key-out", Text, kCli, "", "PATH", "key/provenance path", "<input>.key.json"},
        kKeyPort,
        {"no-banner", Flag, kBoth, "", "", "omit the locking-statistics banner comment"},
        {"csv", Flag, kCli, "", "", "print the summary table as CSV"},
        kSource, kLabel}},
      {"attack", "locked netlist (locked.v)",
       {{"key", Document, kBoth, "", "PATH", "key file from `rtlock lock` (enables KPA scoring)"},
        {"module", Text, kBoth, "", "NAME", "attack this module", "the only keyed module"},
        kKeyPort,
        {"rounds", Count, kBoth, "1000", "N", "training relock rounds", "", 1, kMaxRounds},
        {"relock-budget", Text, kBoth, "75%", "SPEC", "training budget fraction"},
        kFolds, kExtended,
        {"repeats", Count, kBoth, "1", "N", "independent attack repeats", "", 1, 1'000'000},
        {"seed", Count, kBoth, "1", "N", "RNG root; repeat r draws from substream(r)"},
        kThreads, kReport, kReportCsv, kNoWall, kCsv, kSource, kLabel}},
      {"eval", kInput, std::move(eval)},
      {"work", kInput, std::move(work)},
      {"merge", "*",
       {{"journals-dir", Text, kCli, "", "DIR", "merge every *.jsonl in DIR"},
        {"manifest", Text, kCli, "", "PATH", "rebuild the full eval report in grid order"},
        {"out", Text, kCli, "", "PATH", "write the merged journal (atomic replace)"},
        kReport, kReportCsv, kNoWall, kCsv}},
      {"lint", "input netlist (locked.v)",
       {{"module", Text, kCli, "", "NAME", "lint this module only", "every module"},
        kKeyPort, kReport, kReportCsv,
        {"json", Flag, kCli, "", "", "print the JSON report on stdout instead of text"},
        kNoWall, kCsv}},
      {"serve", "",
       {{"host", Text, kCli, "127.0.0.1", "ADDR", "numeric IPv4 listen address"},
        {"port", Count, kCli, "0", "N", "TCP port; 0 picks an ephemeral port", "", 0, 65535},
        {"threads", Threads, kCli, "", "N", "connection workers", kEnvThreads, 0,
         support::kMaxThreads},
        {"queue", Count, kCli, "64", "N", "pending connections; overflow answers 429", "", 1,
         1'000'000},
        {"deadline-ms", Count, kCli, "0", "N", "per-request wall budget; overruns answer 504",
         "none", 0, kMaxMillis},
        {"cache-mb", Count, kCli, "256", "N", "session-cache byte budget", "", 1, 1'000'000},
        {"max-body-mb", Count, kCli, "8", "N", "largest accepted request body", "", 1, 1024},
        {"max-requests", Count, kCli, "0", "N", "accept N connections, then drain", "forever"},
        {"socket-timeout-ms", Count, kCli, "10000", "N", "per-socket recv/send timeout", "", 0,
         kMaxMillis}}},
      {"report", "report file (report.json)",
       {{"bench", Text, kCli, "", "NAME", "keep rows with this bench"},
        {"metric", Text, kCli, "", "NAME", "keep rows with this metric"},
        {"config", Text, kCli, "", "TEXT", "keep rows whose config contains TEXT"},
        tableCsv}},
      {"designs", "", {{"emit", Text, kCli, "", "NAME", "print design NAME as Verilog"}, tableCsv}},
  };
}

[[nodiscard]] FieldValues::Value fromJson(const Field& field, const std::string& key,
                                          const support::JsonValue& value) {
  const std::string spelling = "field '" + key + "'";
  constexpr const char* kShapes[] = {"a string", "a boolean", "a non-negative integer", "",
                                     "a list string or an array"};  // by FieldKind
  const auto mistyped = [&] {
    return BadRequest{spelling + " must be " + kShapes[static_cast<int>(field.kind)]};
  };
  try {
    switch (field.kind) {
      case Flag: return value.asBool();
      case Count: {
        const std::int64_t number = value.asInt();
        if (number < 0) throw mistyped();
        checkRange(field, static_cast<double>(number), spelling);
        return static_cast<std::uint64_t>(number);
      }
      case Document: return value;
      case List: {
        if (!value.isArray()) return value.asString();
        std::string list;  // the entries in the list's comma spelling
        for (const support::JsonValue& entry : value.asArray()) {
          if (!list.empty()) list += ',';
          list += entry.isString() ? entry.asString() : std::to_string(entry.asInt());
        }
        return list;
      }
      default: return value.asString();
    }
  } catch (const BadRequest&) {
    throw;
  } catch (const support::Error&) {  // the wrong JSON type
    throw mistyped();
  }
}

/// checkRange over the named rows of `command`'s table.
void checkRows(std::string_view command,
               std::initializer_list<std::pair<const char*, double>> values) {
  const Schema& schema = schemaFor(command);
  for (const auto& [name, value] : values) checkRange(schema.at(name), value, name);
}

}  // namespace

std::string Field::jsonSpelling() const {
  std::string spelling{jsonName.empty() ? name : jsonName};
  std::replace(spelling.begin(), spelling.end(), '-', '_');
  return spelling;
}

std::string Field::shownDefault() const {
  if (!shown.empty()) return std::string{shown};
  return kind == Flag ? "off" : std::string{fallback};
}

const Field* Schema::find(std::string_view name) const {
  const auto it = std::find_if(fields.begin(), fields.end(),
                               [name](const Field& field) { return field.name == name; });
  return it == fields.end() ? nullptr : &*it;
}

const Field& Schema::at(std::string_view name) const {
  if (const Field* field = find(name)) return *field;
  throw std::logic_error{std::string{command} + " has no field " + std::string{name}};
}

const Field* Schema::findJson(std::string_view key) const {
  for (const Field& field : fields) {
    if ((field.surface & kJson) != 0 && field.jsonSpelling() == key) return &field;
  }
  return nullptr;
}

std::string Schema::flagHelp() const {
  const auto head = [](const Field& field) {
    return "  --" + std::string{field.name} +
           (field.metavar.empty() ? "" : "=" + std::string{field.metavar});
  };
  std::size_t width = 0;
  for (const Field& field : fields) {
    if ((field.surface & kCli) != 0) width = std::max(width, head(field).size() + 2);
  }
  std::string out = "\nflags:\n";
  for (const Field& field : fields) {
    if ((field.surface & kCli) == 0) continue;
    std::string help{field.help};
    if (field.kind != Flag && !field.shownDefault().empty()) {
      help += " (default " + field.shownDefault() + ")";
    }
    std::string line = head(field);
    line.resize(width, ' ');
    for (const std::string& word : support::split(help, ' ')) {
      if (line.size() > width && line.size() + 1 + word.size() > 79) {
        out += line + "\n";
        line.assign(width, ' ');
      }
      line += (line.size() > width ? " " : "") + word;
    }
    out += line + "\n";
  }
  return out;
}

const std::vector<Schema>& allSchemas() {
  static const std::vector<Schema> schemas = buildSchemas();
  return schemas;
}

const Schema& schemaFor(std::string_view command) {
  const std::vector<Schema>& schemas = allSchemas();
  const auto it = std::find_if(schemas.begin(), schemas.end(),
                               [command](const Schema& entry) { return entry.command == command; });
  if (it == schemas.end()) throw std::logic_error{"no schema for " + std::string{command}};
  return *it;
}

FieldValues::FieldValues(const Schema& schema)
    : schema_(&schema), given_(schema.fields.size(), false) {
  values_.reserve(schema.fields.size());
  for (const Field& field : schema.fields) {
    if (field.kind == Flag) {
      values_.emplace_back(false);
    } else if (field.kind == Count || field.kind == Threads) {
      values_.emplace_back(support::parseU64(field.fallback).value_or(0));
    } else {
      values_.emplace_back(std::string{field.fallback});
    }
  }
}

void FieldValues::set(const Field& field, Value value) {
  const auto index = static_cast<std::size_t>(&field - schema_->fields.data());
  values_[index] = std::move(value);
  given_[index] = true;
}

FieldValues decodeFlags(const Schema& schema, const std::vector<std::string>& args) {
  std::vector<std::string> known;
  for (const Field& field : schema.fields) {
    if ((field.surface & kCli) != 0) known.emplace_back(field.name);
  }
  std::vector<const char*> argv{"rtlock"};
  for (const std::string& arg : args) argv.push_back(arg.c_str());
  FieldValues values{schema};
  std::optional<support::CliArgs> flags;
  try {
    flags.emplace(static_cast<int>(argv.size()), argv.data(), std::move(known));
    const std::vector<std::string>& rest = flags->positional();
    if (schema.operand.size() > 1 && rest.empty()) {
      throw BadRequest{"missing " + std::string{schema.operand}};
    }
    const std::size_t most = schema.operand.empty() ? 0 : schema.operand == "*" ? rest.size() : 1;
    if (rest.size() > most) throw BadRequest{"unexpected argument '" + rest[most] + "'"};
    values.setPositional(rest);
    for (const Field& field : schema.fields) {
      if ((field.surface & kCli) == 0 || !flags->has(field.name)) continue;
      if (field.kind == Flag) {
        values.set(field, flags->getBool(field.name, false));
      } else if (field.kind == Count || field.kind == Threads) {
        const std::uint64_t number = flags->getU64(field.name, 0);
        checkRange(field, static_cast<double>(number), "--" + std::string{field.name});
        values.set(field, number);
      } else {
        values.set(field, flags->get(field.name, ""));
      }
    }
  } catch (const BadRequest&) {
    throw;
  } catch (const support::Error& error) {
    throw BadRequest{error.what()};  // unknown flag, malformed value
  }
  // A malformed RTLOCK_THREADS stays a runtime error, not a flag typo.
  for (const Field& field : schema.fields) {
    if (field.kind == Threads && !flags->has(field.name)) {
      values.set(field, static_cast<std::uint64_t>(support::requestedThreads(*flags)));
    }
  }
  return values;
}

FieldValues decodeJson(const Schema& schema, const support::JsonValue& body) {
  if (!body.isObject()) throw BadRequest{"request body must be a JSON object"};
  FieldValues values{schema};
  for (const auto& [key, value] : body.asObject()) {
    const Field* field = schema.findJson(key);
    if (field == nullptr) throw BadRequest{"unknown field '" + key + "'"};
    values.set(*field, fromJson(*field, key, value));
  }
  return values;
}

void checkRange(const Field& field, double value, std::string_view spelling) {
  if (!(value >= static_cast<double>(field.min) && value <= static_cast<double>(field.max))) {
    std::array<char, 32> got{};
    const auto end = std::to_chars(got.data(), got.data() + got.size(), value).ptr;
    throw BadRequest{std::string{spelling} + " must be in [" + std::to_string(field.min) + ", " +
                     std::to_string(field.max) + "], got " + std::string(got.data(), end)};
  }
}

LockRequest lockRequestFrom(const FieldValues& values) {
  LockRequest request;
  request.source = values.text("source");
  request.session.keyPortName = values.text("key-port");
  request.algorithm = algorithmFromName(values.text("algo"));
  request.budget = parseBudget(values.text("budget"));
  request.seed = values.count("seed");
  request.emitBanner = !values.flag("no-banner");
  request.inputLabel = values.text("label");
  validate(request);
  return request;
}

AttackRequest attackRequestFrom(const FieldValues& values) {
  AttackRequest request;
  request.source = values.text("source");
  request.session.keyPortName = values.text("key-port");
  request.moduleName = values.text("module");
  request.rounds = values.integer("rounds");
  request.relockBudget = parseBudget(values.text("relock-budget"));
  request.folds = values.integer("folds");
  request.extendedFeatures = values.flag("extended-features");
  request.repeats = values.integer("repeats");
  request.seed = values.count("seed");
  request.threads = values.integer("threads");
  request.includeWall = !values.flag("no-wall");
  validate(request);
  return request;
}

EvalRequest evalRequestFrom(const FieldValues& values) {
  EvalRequest request;
  request.source = values.text("source");
  request.session.keyPortName = values.text("key-port");
  request.moduleName = values.text("module");
  request.algorithms = algorithmListFromNames(values.text("algos"));
  request.seeds = parseSeedList(values.text("seeds"));
  request.samples = values.integer("samples");
  request.rounds = values.integer("rounds");
  request.budget = parseBudget(values.text("budget"));
  request.folds = values.integer("folds");
  request.extendedFeatures = values.flag("extended-features");
  request.verifyFunctional = values.flag("verify-functional");
  request.includeWall = !values.flag("no-wall");
  request.journalPath = values.text("journal");
  request.campaign.threads = values.integer("threads");
  request.campaign.retry.maxAttempts = 1 + values.integer("retries");
  request.campaign.cellDeadlineMs = static_cast<double>(values.count("deadline-ms"));
  if (values.knows("manifest")) {
    request.manifestPath = values.text("manifest");
    // An empty path would fall through to a plain single-process eval.
    if (request.manifestPath.empty()) throw BadRequest{"manifest must name the shared manifest"};
    request.workerId = values.text("owner");
    request.leaseMs = static_cast<double>(values.count("lease-ms"));
    request.pollMs = static_cast<double>(values.count("poll-ms"));
    request.maxWaitMs = static_cast<double>(values.count("max-wait-ms"));
  } else {
    request.campaign.keepErrors = values.flag("keep-errors");
    request.checkCells = values.flag("check") ? values.count("check-cells") : 0;
  }
  validate(request);
  return request;
}

void validate(const LockRequest& request) {
  checkBudget(request.budget, request.budget.describe());
}

void validate(const AttackRequest& request) {
  checkRows("attack",
            {{"repeats", request.repeats}, {"rounds", request.rounds}, {"folds", request.folds}});
  requireFraction(request.relockBudget, "relock-budget");
}

void validate(const EvalRequest& request) {
  if (request.algorithms.empty()) throw BadRequest{"no algorithms listed"};
  if (request.seeds.empty()) throw BadRequest{"no seeds listed"};
  checkRows("work", {{"samples", request.samples},
                     {"rounds", request.rounds},
                     {"folds", request.folds},
                     {"deadline-ms", request.campaign.cellDeadlineMs}});
  if (!request.manifestPath.empty()) {
    checkRows("work", {{"lease-ms", request.leaseMs},
                       {"poll-ms", request.pollMs},
                       {"max-wait-ms", request.maxWaitMs}});
  }
  requireFraction(request.budget, "budget");
}

}  // namespace rtlock::service
