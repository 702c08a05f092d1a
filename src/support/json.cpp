#include "support/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "support/diagnostics.hpp"

namespace rtlock::support {

namespace {

[[nodiscard]] std::string_view kindName(const JsonValue& value) noexcept {
  if (value.isNull()) return "null";
  if (value.isBool()) return "bool";
  if (value.isNumber()) return "number";
  if (value.isString()) return "string";
  if (value.isArray()) return "array";
  return "object";
}

[[noreturn]] void wrongKind(const JsonValue& value, std::string_view wanted) {
  throw Error{"JSON value is " + std::string{kindName(value)} + ", expected " +
              std::string{wanted}};
}

/// Formats a double the way the baseline writer does: integral values print
/// without an exponent or trailing zeros, everything else via shortest
/// round-trip %.17g trimmed.  Keeps emitted reports diffable and re-parsable.
void appendNumber(std::string& out, double value) {
  if (std::isfinite(value) && value == std::floor(value) && std::abs(value) < 1e15) {
    if (value == 0 && std::signbit(value)) {
      out += "-0";  // the sign survives, as written reports and digests expect
      return;
    }
    char buffer[24];
    const auto end = std::to_chars(buffer, buffer + sizeof buffer,
                                   static_cast<std::int64_t>(value)).ptr;
    out.append(buffer, end);
    return;
  }
  if (!std::isfinite(value)) throw Error{"JSON cannot represent a non-finite number"};
  // Prefer the shortest representation that round-trips.
  char buffer[40];
  for (int precision = 1; precision < 17; ++precision) {
    std::snprintf(buffer, sizeof buffer, "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) {
      out += buffer;
      return;
    }
  }
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  out += buffer;
}

[[nodiscard]] std::string formatNumber(double value) {
  std::string out;
  appendNumber(out, value);
  return out;
}

/// Appends `text` as JSON string content: quotes and backslashes escaped,
/// control characters as \u escapes in lower-case hex, every other byte as
/// is.
void appendEscaped(std::string& out, std::string_view text) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::size_t plain = 0;  // start of the run not yet appended
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text, plain, i - plain);
    if (c < 0x20) {
      out += "\\u00";
      out += kHex[c >> 4];
      out += kHex[c & 0xf];
    } else {
      out += '\\';
      out += static_cast<char>(c);
    }
    plain = i + 1;
  }
  out.append(text, plain);
}

void appendQuoted(std::string& out, std::string_view text) {
  out += '"';
  appendEscaped(out, text);
  out += '"';
}

/// Compact output (depth < 0) separates items with ", "; indented output
/// puts each item on its own line, two spaces deeper than its container.
void breakLine(std::string& out, int depth) {
  if (depth < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

/// Deepest container nesting parseJson accepts.  The tools' documents nest a
/// handful of levels; the cap keeps the recursive parser (and the recursive
/// destructor of what it built) off the end of the stack on hostile input.
constexpr int kMaxJsonDepth = 1024;

class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  JsonValue parse() {
    JsonValue value = parseValue();
    skipWhitespace();
    if (pos_ != text_.size()) fail("trailing content after JSON document");
    return value;
  }

 private:
  [[nodiscard]] char peek() const noexcept { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  char advance() {
    const char c = text_[pos_++];
    if (c == '\n') {
      ++line_;
      column_ = 1;
    } else {
      ++column_;
    }
    return c;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw Error{"JSON parse error at line " + std::to_string(line_) + ", column " +
                std::to_string(column_) + ": " + message};
  }

  void skipWhitespace() {
    while (pos_ < text_.size()) {
      const char c = peek();
      if (c != ' ' && c != '\t' && c != '\r' && c != '\n') return;
      advance();
    }
  }

  void expect(char wanted, const char* context) {
    if (peek() != wanted) {
      fail(std::string{"expected '"} + wanted + "' " + context);
    }
    advance();
  }

  bool acceptLiteral(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    for (std::size_t i = 0; i < literal.size(); ++i) advance();
    return true;
  }

  JsonValue parseValue() {
    skipWhitespace();
    switch (peek()) {
      case '{':
      case '[': {
        if (depth_ == kMaxJsonDepth) {
          fail("containers nested deeper than " + std::to_string(kMaxJsonDepth) + " levels");
        }
        ++depth_;
        JsonValue value = peek() == '{' ? parseObject() : parseArray();
        --depth_;
        return value;
      }
      case '"': return JsonValue{parseString()};
      case 't':
        if (acceptLiteral("true")) return JsonValue{true};
        fail("malformed literal");
      case 'f':
        if (acceptLiteral("false")) return JsonValue{false};
        fail("malformed literal");
      case 'n':
        if (acceptLiteral("null")) return JsonValue{nullptr};
        fail("malformed literal");
      default: return parseNumber();
    }
  }

  JsonValue parseObject() {
    expect('{', "to open object");
    JsonObject members;
    skipWhitespace();
    if (peek() == '}') {
      advance();
      return JsonValue{std::move(members)};
    }
    for (;;) {
      skipWhitespace();
      std::string key = parseString();
      skipWhitespace();
      expect(':', "after object key");
      members.emplace_back(std::move(key), parseValue());
      skipWhitespace();
      if (peek() == ',') {
        advance();
        continue;
      }
      expect('}', "to close object");
      return JsonValue{std::move(members)};
    }
  }

  JsonValue parseArray() {
    expect('[', "to open array");
    JsonArray items;
    skipWhitespace();
    if (peek() == ']') {
      advance();
      return JsonValue{std::move(items)};
    }
    for (;;) {
      items.push_back(parseValue());
      skipWhitespace();
      if (peek() == ',') {
        advance();
        continue;
      }
      expect(']', "to close array");
      return JsonValue{std::move(items)};
    }
  }

  /// Consumes the continuation bytes of a UTF-8 sequence whose lead byte is
  /// `lead`, appending them to `out`.  Rejects truncated sequences, stray
  /// continuation bytes, overlong encodings, surrogates and > U+10FFFF —
  /// corrupt journal tails and binary garbage must fail loudly, never be
  /// accepted as a string payload.
  void consumeUtf8Tail(std::string& out, unsigned char lead) {
    int tail = 0;
    unsigned min = 0x80;
    if (lead >= 0xc2 && lead <= 0xdf) {
      tail = 1;
    } else if (lead >= 0xe0 && lead <= 0xef) {
      tail = 2;
      min = lead == 0xe0 ? 0xa0 : 0x80;          // no overlong 3-byte forms
    } else if (lead >= 0xf0 && lead <= 0xf4) {
      tail = 3;
      min = lead == 0xf0 ? 0x90 : 0x80;          // no overlong 4-byte forms
    } else {
      fail("invalid UTF-8 byte in string");      // 0x80..0xc1, 0xf5..0xff
    }
    for (int i = 0; i < tail; ++i) {
      if (pos_ >= text_.size()) fail("truncated UTF-8 sequence in string");
      const auto byte = static_cast<unsigned char>(advance());
      const unsigned low = i == 0 ? min : 0x80u;
      unsigned high = 0xbf;
      if (i == 0 && lead == 0xed) high = 0x9f;   // reject UTF-16 surrogates
      if (i == 0 && lead == 0xf4) high = 0x8f;   // reject > U+10FFFF
      if (byte < low || byte > high) fail("malformed UTF-8 sequence in string");
      out.push_back(static_cast<char>(byte));
    }
  }

  std::string parseString() {
    expect('"', "to open string");
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = advance();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      }
      if (static_cast<unsigned char>(c) >= 0x80) {
        out.push_back(c);
        consumeUtf8Tail(out, static_cast<unsigned char>(c));
        continue;
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = advance();
      switch (escape) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': appendCodepoint(out); break;
        default: fail(std::string{"unknown escape '\\"} + escape + "'");
      }
    }
  }

  void appendCodepoint(std::string& out) {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      if (pos_ >= text_.size()) fail("unterminated \\u escape");
      const char c = advance();
      code <<= 4;
      if (c >= '0' && c <= '9') code += static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code += static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code += static_cast<unsigned>(c - 'A' + 10);
      else fail("malformed \\u escape");
    }
    // Basic-plane UTF-8 encoding; surrogate pairs are outside what the tools
    // ever emit and are rejected rather than silently mangled.
    if (code >= 0xd800 && code <= 0xdfff) fail("surrogate pairs are not supported");
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xc0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out.push_back(static_cast<char>(0xe0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  }

  JsonValue parseNumber() {
    const std::size_t start = pos_;
    if (peek() == '-') advance();
    while (std::isdigit(static_cast<unsigned char>(peek())) != 0) advance();
    if (peek() == '.') {
      advance();
      // strtod would happily accept a bare "1." — enforce the JSON grammar
      // (at least one fraction digit) so a number truncated mid-token by a
      // torn write is rejected instead of silently shortened.
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) fail("malformed number");
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) advance();
    }
    if (peek() == 'e' || peek() == 'E') {
      advance();
      if (peek() == '+' || peek() == '-') advance();
      if (std::isdigit(static_cast<unsigned char>(peek())) == 0) fail("malformed number");
      while (std::isdigit(static_cast<unsigned char>(peek())) != 0) advance();
    }
    const std::string token{text_.substr(start, pos_ - start)};
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (token.empty() || end != token.c_str() + token.size()) fail("malformed number");
    return JsonValue{value};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int line_ = 1;
  int column_ = 1;
  int depth_ = 0;  // containers open around the current position
};

}  // namespace

bool JsonValue::asBool() const {
  if (!isBool()) wrongKind(*this, "bool");
  return std::get<bool>(value_);
}

double JsonValue::asDouble() const {
  if (!isNumber()) wrongKind(*this, "number");
  return std::get<double>(value_);
}

std::int64_t JsonValue::asInt() const {
  const double value = asDouble();
  // Range-check before the cast: double→int64 outside the representable
  // range is undefined behavior, and corrupt documents must fail cleanly.
  if (!(value >= -9223372036854775808.0 && value < 9223372036854775808.0)) {
    throw Error{"JSON number is outside the 64-bit integer range"};
  }
  const auto integral = static_cast<std::int64_t>(value);
  if (static_cast<double>(integral) != value) {
    throw Error{"JSON number " + formatNumber(value) + " is not an integer"};
  }
  return integral;
}

const std::string& JsonValue::asString() const {
  if (!isString()) wrongKind(*this, "string");
  return std::get<std::string>(value_);
}

const JsonArray& JsonValue::asArray() const {
  if (!isArray()) wrongKind(*this, "array");
  return std::get<JsonArray>(value_);
}

const JsonObject& JsonValue::asObject() const {
  if (!isObject()) wrongKind(*this, "object");
  return std::get<JsonObject>(value_);
}

JsonArray& JsonValue::asArray() {
  if (!isArray()) wrongKind(*this, "array");
  return std::get<JsonArray>(value_);
}

JsonObject& JsonValue::asObject() {
  if (!isObject()) wrongKind(*this, "object");
  return std::get<JsonObject>(value_);
}

const JsonValue* JsonValue::find(std::string_view key) const noexcept {
  if (!isObject()) return nullptr;
  for (const auto& [name, value] : std::get<JsonObject>(value_)) {
    if (name == key) return &value;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
  if (const JsonValue* value = find(key)) return *value;
  throw Error{"JSON object has no member \"" + std::string{key} + "\""};
}

void JsonValue::set(std::string_view key, JsonValue value) {
  if (isNull()) value_ = JsonObject{};
  // Overwrite in place (keeping the member's position) rather than append a
  // duplicate key at() would never see.
  for (auto& member : asObject()) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  asObject().emplace_back(std::string{key}, std::move(value));
}

void JsonValue::writeTo(std::string& out, int depth) const {
  const int inner = depth < 0 ? depth : depth + 1;
  if (isNull()) {
    out += "null";
  } else if (isBool()) {
    out += std::get<bool>(value_) ? "true" : "false";
  } else if (isNumber()) {
    appendNumber(out, std::get<double>(value_));
  } else if (isString()) {
    appendQuoted(out, std::get<std::string>(value_));
  } else if (isArray()) {
    const JsonArray& items = std::get<JsonArray>(value_);
    out += '[';
    for (std::size_t i = 0; i < items.size(); ++i) {
      if (i != 0) out += depth < 0 ? ", " : ",";
      breakLine(out, inner);
      items[i].writeTo(out, inner);
    }
    if (!items.empty()) breakLine(out, depth);
    out += ']';
  } else {
    const JsonObject& members = std::get<JsonObject>(value_);
    out += '{';
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (i != 0) out += depth < 0 ? ", " : ",";
      breakLine(out, inner);
      appendQuoted(out, members[i].first);
      out += ": ";
      members[i].second.writeTo(out, inner);
    }
    if (!members.empty()) breakLine(out, depth);
    out += '}';
  }
}

void JsonValue::write(std::ostream& out) const { out << dump(); }

std::string JsonValue::dumpLine() const {
  std::string out;
  writeTo(out, -1);
  return out;
}

std::string JsonValue::dump() const {
  std::string out;
  writeTo(out, 0);
  out += '\n';
  return out;
}

JsonValue parseJson(std::string_view text) { return JsonParser{text}.parse(); }

std::string jsonEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  appendEscaped(out, text);
  return out;
}

}  // namespace rtlock::support
