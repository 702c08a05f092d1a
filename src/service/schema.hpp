// One request schema: a field table per command.
//
// Each row names a setting once (flag and JSON spelling, kind, default,
// bounds, help), and the rows drive every surface: decodeFlags parses
// `rtlock <command>` flags, decodeJson the POST /v1/lock|attack|eval bodies,
// Schema::flagHelp renders each usage text's flag section, and checkRange is
// the one bounds check.  The *RequestFrom builders are the one place a
// decoded row lands in its request member; they end in validate(), which
// runLock/runAttack/runEval repeat for requests built by hand.  What differs
// per surface stays with the caller: the netlist and key are files on the
// CLI and inline over HTTP, and the server sets its own threads and deadline.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "service/api.hpp"

namespace rtlock::service {

enum class FieldKind : std::uint8_t {
  Text,      // a string; algorithms and budgets parse in the builders
  Flag,      // bare --flag or =true|false|1|0|yes|no|on|off; JSON bool
  Count,     // non-negative integer in [min, max]; JSON integer
  Threads,   // worker count: the flag, else RTLOCK_THREADS, else 0 (hardware)
  List,      // comma list ("serial,hra", "1..5"); JSON also an array of entries
  Document,  // a file path on the CLI, the document inline over HTTP (the attack key)
};

enum Surface : std::uint8_t { kCli = 1, kJson = 2, kBoth = kCli | kJson };

/// Largest value of every *-ms row (about 31 years): no ms -> us or ns cast
/// of it can overflow.
inline constexpr std::uint64_t kMaxMillis = 1'000'000'000'000;
/// Largest `samples` and `rounds`; both fit an int.
inline constexpr std::uint64_t kMaxSamples = 1'000'000;
inline constexpr std::uint64_t kMaxRounds = 1'000'000'000;

struct Field {
  std::string_view name;  // flag spelling; JSON swaps '-' for '_' unless jsonName is set
  FieldKind kind;
  Surface surface;
  std::string_view fallback;  // default, spelled as a flag value ("" = none)
  std::string_view metavar;   // value placeholder in usage ("N", "PATH")
  std::string_view help;
  std::string_view shown = {};  // the default as usage and docs print it, if not `fallback`
  std::uint64_t min = 0;        // Count bounds
  std::uint64_t max = std::numeric_limits<std::uint64_t>::max();
  std::string_view jsonName = {};

  [[nodiscard]] std::string jsonSpelling() const;
  /// `shown`, else "off" for Flag rows, else `fallback` ("" = no default).
  [[nodiscard]] std::string shownDefault() const;
};

struct Schema {
  std::string_view command;
  std::string_view operand;  // the one CLI positional ("input netlist"), "" = none, "*" = any
  std::vector<Field> fields;

  [[nodiscard]] const Field* find(std::string_view name) const;
  [[nodiscard]] const Field& at(std::string_view name) const;  // std::logic_error if absent
  [[nodiscard]] const Field* findJson(std::string_view key) const;
  [[nodiscard]] std::string flagHelp() const;  // "\nflags:\n" + one entry per CLI row
};

/// The table of `rtlock <command>` (lock, attack, eval, work, merge, lint,
/// serve, report, designs).  POST /v1/eval takes work's when the body has
/// `manifest`, as `rtlock work` does.
[[nodiscard]] const Schema& schemaFor(std::string_view command);
[[nodiscard]] const std::vector<Schema>& allSchemas();

/// One request's decoded rows; rows not given hold their default.  Naming a
/// row the schema lacks throws std::logic_error.
class FieldValues {
 public:
  using Value = std::variant<std::string, bool, std::uint64_t, support::JsonValue>;

  explicit FieldValues(const Schema& schema);

  [[nodiscard]] bool knows(std::string_view name) const { return schema_->find(name) != nullptr; }
  [[nodiscard]] bool has(std::string_view name) const { return given_[index(name)]; }
  [[nodiscard]] std::string text(std::string_view name) const { return get<std::string>(name); }
  [[nodiscard]] bool flag(std::string_view name) const { return get<bool>(name); }
  [[nodiscard]] std::uint64_t count(std::string_view name) const {
    return get<std::uint64_t>(name);
  }
  [[nodiscard]] int integer(std::string_view name) const { return static_cast<int>(count(name)); }
  /// A Document row decoded from JSON, else null.
  [[nodiscard]] const support::JsonValue* document(std::string_view name) const {
    return std::get_if<support::JsonValue>(&values_[index(name)]);
  }
  [[nodiscard]] const std::vector<std::string>& positional() const { return positional_; }

  void set(const Field& field, Value value);  // `field` is a row of this schema
  void setPositional(std::vector<std::string> positional) { positional_ = std::move(positional); }

 private:
  [[nodiscard]] std::size_t index(std::string_view name) const {
    return static_cast<std::size_t>(&schema_->at(name) - schema_->fields.data());
  }
  template <typename T>
  [[nodiscard]] T get(std::string_view name) const {
    return std::get<T>(values_[index(name)]);
  }

  const Schema* schema_;
  std::vector<Value> values_;
  std::vector<bool> given_;
  std::vector<std::string> positional_;
};

/// Decoders: every failure is a BadRequest naming the flag or field.
[[nodiscard]] FieldValues decodeFlags(const Schema& schema, const std::vector<std::string>& args);
[[nodiscard]] FieldValues decodeJson(const Schema& schema, const support::JsonValue& body);

/// The one bounds check: BadRequest naming `spelling`, the bounds and the
/// rejected value unless `value` lies in [field.min, field.max] (NaN never
/// does).
void checkRange(const Field& field, double value, std::string_view spelling);

[[nodiscard]] LockRequest lockRequestFrom(const FieldValues& values);
[[nodiscard]] AttackRequest attackRequestFrom(const FieldValues& values);
[[nodiscard]] EvalRequest evalRequestFrom(const FieldValues& values);  // eval or work rows

void validate(const LockRequest& request);
void validate(const AttackRequest& request);
void validate(const EvalRequest& request);

}  // namespace rtlock::service
