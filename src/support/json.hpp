// Minimal JSON reader/writer for tool I/O.
//
// The CLI exchanges three document kinds — key/provenance files
// (rtlock-key/v1), attack/eval reports (rtlock-*-report/v1, row-compatible
// with BENCH_baseline.json) and the committed baseline itself — and this is
// the one JSON implementation behind all of them.  Scope is deliberately
// small: UTF-8 text, doubles for every number, objects preserving insertion
// order (so emitted documents diff cleanly), no streaming.  Malformed input
// raises support::Error with line/column info, the same contract as the
// Verilog front end.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace rtlock::support {

class JsonValue;

/// Object members in insertion order.  Lookup is linear — the documents the
/// tools exchange have a handful of keys, and stable order matters more.
using JsonObject = std::vector<std::pair<std::string, JsonValue>>;
using JsonArray = std::vector<JsonValue>;

class JsonValue {
 public:
  JsonValue() noexcept : value_(nullptr) {}
  JsonValue(std::nullptr_t) noexcept : value_(nullptr) {}  // NOLINT(google-explicit-constructor)
  JsonValue(bool value) noexcept : value_(value) {}        // NOLINT(google-explicit-constructor)
  JsonValue(double value) noexcept : value_(value) {}      // NOLINT(google-explicit-constructor)
  JsonValue(int value) noexcept                            // NOLINT(google-explicit-constructor)
      : value_(static_cast<double>(value)) {}
  JsonValue(std::int64_t value) noexcept  // NOLINT(google-explicit-constructor)
      : value_(static_cast<double>(value)) {}
  JsonValue(std::uint64_t value) noexcept  // NOLINT(google-explicit-constructor)
      : value_(static_cast<double>(value)) {}
  JsonValue(std::string value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  JsonValue(std::string_view value)                           // NOLINT(google-explicit-constructor)
      : value_(std::string{value}) {}
  JsonValue(const char* value) : value_(std::string{value}) {}  // NOLINT(google-explicit-constructor)
  JsonValue(JsonArray value) : value_(std::move(value)) {}      // NOLINT(google-explicit-constructor)
  JsonValue(JsonObject value) : value_(std::move(value)) {}     // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool isNull() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  [[nodiscard]] bool isBool() const noexcept { return std::holds_alternative<bool>(value_); }
  [[nodiscard]] bool isNumber() const noexcept { return std::holds_alternative<double>(value_); }
  [[nodiscard]] bool isString() const noexcept { return std::holds_alternative<std::string>(value_); }
  [[nodiscard]] bool isArray() const noexcept { return std::holds_alternative<JsonArray>(value_); }
  [[nodiscard]] bool isObject() const noexcept { return std::holds_alternative<JsonObject>(value_); }

  // Typed accessors throw support::Error on kind mismatch — tool code can
  // validate a whole document through them without hand-written type checks.
  [[nodiscard]] bool asBool() const;
  [[nodiscard]] double asDouble() const;
  [[nodiscard]] std::int64_t asInt() const;  // requires an integral number
  [[nodiscard]] const std::string& asString() const;
  [[nodiscard]] const JsonArray& asArray() const;
  [[nodiscard]] const JsonObject& asObject() const;
  [[nodiscard]] JsonArray& asArray();
  [[nodiscard]] JsonObject& asObject();

  /// Member lookup; nullptr when absent (or when not an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const noexcept;

  /// Member lookup; throws support::Error naming the missing key.
  [[nodiscard]] const JsonValue& at(std::string_view key) const;

  /// Appends a member (no duplicate check; writers own their key sets).
  void set(std::string_view key, JsonValue value);

  /// Serializes with 2-space indentation and a trailing newline at top level.
  void write(std::ostream& out) const;
  [[nodiscard]] std::string dump() const;

  /// Compact single-line serialization (no newline, no indentation).  This
  /// is the journal's row encoding: one complete document per line, so a
  /// torn write can only ever damage the final line of the file.  Stable for
  /// byte-comparison — re-serializing a parsed document reproduces it.
  [[nodiscard]] std::string dumpLine() const;

 private:
  /// The one writer: indented at `depth` (>= 0), or compact when negative.
  void writeTo(std::string& out, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray, JsonObject> value_;
};

/// Parses one JSON document (trailing whitespace allowed, nothing else).
[[nodiscard]] JsonValue parseJson(std::string_view text);

/// JSON string escaping (shared with ad-hoc emitters like run_baseline).
[[nodiscard]] std::string jsonEscape(std::string_view text);

}  // namespace rtlock::support
