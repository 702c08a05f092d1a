// support::JsonValue parse/serialize contract.
#include "support/json.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "support/diagnostics.hpp"

namespace rtlock::support {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(parseJson("null").isNull());
  EXPECT_EQ(parseJson("true").asBool(), true);
  EXPECT_EQ(parseJson("false").asBool(), false);
  EXPECT_DOUBLE_EQ(parseJson("-12.5e2").asDouble(), -1250.0);
  EXPECT_EQ(parseJson("42").asInt(), 42);
  EXPECT_EQ(parseJson("\"hi\\n\\\"there\\\"\"").asString(), "hi\n\"there\"");
}

TEST(JsonTest, ParsesNestedStructures) {
  const JsonValue value = parseJson(R"({"rows": [{"a": 1, "b": [true, null]}], "n": 2})");
  EXPECT_EQ(value.at("n").asInt(), 2);
  const JsonArray& rows = value.at("rows").asArray();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].at("a").asInt(), 1);
  EXPECT_TRUE(rows[0].at("b").asArray()[1].isNull());
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  JsonValue value;
  value.set("zebra", 1);
  value.set("apple", 2);
  value.set("mango", 3);
  const JsonObject& object = value.asObject();
  ASSERT_EQ(object.size(), 3u);
  EXPECT_EQ(object[0].first, "zebra");
  EXPECT_EQ(object[1].first, "apple");
  EXPECT_EQ(object[2].first, "mango");
}

TEST(JsonTest, DumpParseRoundTripsStructureAndValues) {
  JsonValue document;
  document.set("schema", "test/v1");
  document.set("pi", 3.14159);
  document.set("count", 7);
  document.set("flag", true);
  JsonArray rows;
  JsonValue row;
  row.set("name", "a \"quoted\" name\twith tab");
  row.set("value", -0.25);
  rows.push_back(std::move(row));
  document.set("rows", JsonValue{std::move(rows)});

  const JsonValue reparsed = parseJson(document.dump());
  EXPECT_EQ(reparsed.at("schema").asString(), "test/v1");
  EXPECT_DOUBLE_EQ(reparsed.at("pi").asDouble(), 3.14159);
  EXPECT_EQ(reparsed.at("count").asInt(), 7);
  EXPECT_TRUE(reparsed.at("flag").asBool());
  EXPECT_EQ(reparsed.at("rows").asArray()[0].at("name").asString(),
            "a \"quoted\" name\twith tab");
  EXPECT_DOUBLE_EQ(reparsed.at("rows").asArray()[0].at("value").asDouble(), -0.25);
  // Serialization is canonical: dump(parse(dump(x))) == dump(x).
  EXPECT_EQ(reparsed.dump(), document.dump());
}

TEST(JsonTest, ParsesCommittedBaselineSchema) {
  const JsonValue baseline = parseJson(R"({
  "schema": "rtlock-bench-baseline/v1",
  "seed": 1,
  "rows": [
    {"bench": "fig4", "config": "serial+serial", "metric": "worst_locality_bias",
     "value": 0.0028, "wall_ms": 1.94}
  ]
})");
  EXPECT_EQ(baseline.at("schema").asString(), "rtlock-bench-baseline/v1");
  const JsonValue& row = baseline.at("rows").asArray().front();
  EXPECT_DOUBLE_EQ(row.at("value").asDouble(), 0.0028);
}

TEST(JsonTest, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(parseJson("\"\\u0041\"").asString(), "A");
  EXPECT_EQ(parseJson("\"\\u00e9\"").asString(), "\xc3\xa9");    // é
  EXPECT_EQ(parseJson("\"\\u20ac\"").asString(), "\xe2\x82\xac");  // €
}

TEST(JsonTest, MalformedInputThrowsWithLocation) {
  EXPECT_THROW((void)parseJson(""), Error);
  EXPECT_THROW((void)parseJson("{\"a\": }"), Error);
  EXPECT_THROW((void)parseJson("[1, 2"), Error);
  EXPECT_THROW((void)parseJson("{\"a\": 1} trailing"), Error);
  EXPECT_THROW((void)parseJson("\"unterminated"), Error);
  EXPECT_THROW((void)parseJson("truthy"), Error);
  try {
    (void)parseJson("{\n  \"a\": @\n}");
    FAIL() << "expected Error";
  } catch (const Error& error) {
    EXPECT_NE(std::string{error.what()}.find("line 2"), std::string::npos);
  }
}

TEST(JsonTest, TypeMismatchesThrow) {
  const JsonValue value = parseJson(R"({"n": 1.5, "s": "x"})");
  EXPECT_THROW((void)value.at("s").asDouble(), Error);
  EXPECT_THROW((void)value.at("n").asInt(), Error);  // non-integral
  EXPECT_THROW((void)value.at("missing"), Error);
  EXPECT_EQ(value.find("missing"), nullptr);
  // Out-of-int64-range numbers fail cleanly (no UB cast).
  EXPECT_THROW((void)parseJson("1e300").asInt(), Error);
  EXPECT_THROW((void)parseJson("-1e300").asInt(), Error);
}

TEST(JsonTest, EscapesControlCharactersOnOutput) {
  const std::string raw{"a\x01"
                        "b"};
  JsonValue value{raw};
  EXPECT_EQ(value.dump(), "\"a\\u0001b\"\n");
  EXPECT_EQ(parseJson(value.dump()).asString(), raw);
}

TEST(JsonTest, DumpLineIsCompactAndReparsable) {
  const JsonValue value = parseJson(R"({"rows": [{"a": 1, "b": [true, null]}], "n": 2.5})");
  const std::string line = value.dumpLine();
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_EQ(line, R"({"rows": [{"a": 1, "b": [true, null]}], "n": 2.5})");
  EXPECT_EQ(parseJson(line).dumpLine(), line);
}

// Every proper prefix of a valid document is a torn write (the campaign
// journal's crash model): all of them must raise Error — no partial
// accept, no crash, no silent empty value.
TEST(JsonTest, EveryTruncationOfAValidDocumentIsRejected) {
  const std::string full =
      R"({"cell": "a:hra:1:b", "status": "ok", "wall_ms": 12.5, )"
      R"("result": {"kpa": [50, 33.3], "flags": [true, false, null], "tag": "x€\n"}})";
  ASSERT_NO_THROW((void)parseJson(full));
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_THROW((void)parseJson(full.substr(0, cut)), Error) << "prefix length " << cut;
  }
}

TEST(JsonTest, MidTokenTruncationsAreRejected) {
  // EOF inside every token class.
  EXPECT_THROW((void)parseJson("tru"), Error);
  EXPECT_THROW((void)parseJson("nul"), Error);
  EXPECT_THROW((void)parseJson("fals"), Error);
  EXPECT_THROW((void)parseJson("-"), Error);
  EXPECT_THROW((void)parseJson("1e"), Error);
  EXPECT_THROW((void)parseJson("1."), Error);
  EXPECT_THROW((void)parseJson("\"abc\\"), Error);
  EXPECT_THROW((void)parseJson("\"abc\\u00"), Error);
  EXPECT_THROW((void)parseJson("{\"a\""), Error);
  EXPECT_THROW((void)parseJson("{\"a\":"), Error);
  EXPECT_THROW((void)parseJson("[1,"), Error);
}

TEST(JsonTest, UnescapedControlCharactersInStringsRejected) {
  EXPECT_THROW((void)parseJson("\"a\nb\""), Error);
  EXPECT_THROW((void)parseJson("\"a\tb\""), Error);
  std::string withNul = "\"a";
  withNul.push_back('\0');
  withNul += "b\"";
  EXPECT_THROW((void)parseJson(withNul), Error);
}

TEST(JsonTest, InvalidUtf8InStringsRejected) {
  // Lone continuation byte.
  EXPECT_THROW((void)parseJson("\"\x80\""), Error);
  // Truncated 2-byte sequence (lead with no continuation).
  EXPECT_THROW((void)parseJson("\"\xc3\""), Error);
  // Invalid lead bytes 0xC0/0xC1 (overlong 2-byte encodings by construction).
  EXPECT_THROW((void)parseJson("\"\xc0\xaf\""), Error);
  EXPECT_THROW((void)parseJson("\"\xc1\xbf\""), Error);
  // Overlong 3-byte encoding of '/' (0xE0 requires 0xA0..).
  EXPECT_THROW((void)parseJson("\"\xe0\x80\xaf\""), Error);
  // Overlong 4-byte encoding (0xF0 requires 0x90..).
  EXPECT_THROW((void)parseJson("\"\xf0\x80\x80\xaf\""), Error);
  // UTF-16 surrogate half encoded directly (U+D800).
  EXPECT_THROW((void)parseJson("\"\xed\xa0\x80\""), Error);
  // Beyond U+10FFFF.
  EXPECT_THROW((void)parseJson("\"\xf4\x90\x80\x80\""), Error);
  EXPECT_THROW((void)parseJson("\"\xf5\x80\x80\x80\""), Error);
  // Continuation byte out of range.
  EXPECT_THROW((void)parseJson("\"\xc3\x29\""), Error);
  // Truncated multi-byte sequence at end of input.
  EXPECT_THROW((void)parseJson("\"\xe2\x82\""), Error);
}

TEST(JsonTest, ValidUtf8PassesThroughByteExact) {
  const std::string text = "\"caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x94\x92\"";  // café € 🔒
  EXPECT_EQ(parseJson(text).asString(), text.substr(1, text.size() - 2));
  // Boundary code points: U+07FF, U+FFFD, U+10FFFF.
  EXPECT_EQ(parseJson("\"\xdf\xbf\"").asString(), "\xdf\xbf");
  EXPECT_EQ(parseJson("\"\xef\xbf\xbd\"").asString(), "\xef\xbf\xbd");
  EXPECT_EQ(parseJson("\"\xf4\x8f\xbf\xbf\"").asString(), "\xf4\x8f\xbf\xbf");
}

// Deterministic fuzz sweep: random byte mutations of a valid document must
// either parse (the mutation kept it valid) or throw Error — never crash
// and never return a value that fails to re-serialize.
TEST(JsonTest, ByteMutationFuzzNeverCrashesOrPartiallyAccepts) {
  const std::string base =
      R"({"schema": "rtlock-journal/v1", "rows": [1, 2.5, -3e2, true, null, "séq"]})";
  std::uint64_t state = 0x9e3779b97f4a7c15ull;  // fixed-seed xorshift
  const auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 2000; ++round) {
    std::string mutated = base;
    const std::size_t edits = 1 + next() % 3;
    for (std::size_t e = 0; e < edits; ++e) {
      mutated[next() % mutated.size()] = static_cast<char>(next() & 0xff);
    }
    try {
      const JsonValue value = parseJson(mutated);
      const std::string reserialized = value.dumpLine();  // must not throw
      EXPECT_EQ(parseJson(reserialized).dumpLine(), reserialized);
    } catch (const Error&) {
      // Rejected cleanly: exactly what a torn/corrupt journal line needs.
    }
  }
}

/// dump(), write() and dumpLine() of `value` must be exactly these bytes.
void expectWritten(const JsonValue& value, const std::string& indented, const std::string& line) {
  EXPECT_EQ(value.dump(), indented + "\n");
  std::ostringstream out;
  value.write(out);
  EXPECT_EQ(out.str(), indented + "\n");
  EXPECT_EQ(value.dumpLine(), line);
}

TEST(JsonTest, NumberBytesArePinned) {
  const std::pair<double, const char*> cases[] = {
      {-0.0, "-0"},
      {0.0, "0"},
      {1e15, "1e+15"},
      {-1e15, "-1e+15"},
      {999999999999999.0, "999999999999999"},
      {-999999999999999.0, "-999999999999999"},
      {0.5, "0.5"},
      {1e-07, "1e-07"},
      {123456789.125, "123456789.125"},
      {1e300, "1e+300"},
      {-7.0, "-7"},
      {0.1, "0.1"},
      {2.0 / 3.0, "0.6666666666666666"},
      {0.1 + 0.2, "0.30000000000000004"},
  };
  for (const auto& [number, text] : cases) {
    expectWritten(JsonValue{number}, text, text);
  }
}

TEST(JsonTest, StringBytesArePinned) {
  const std::pair<std::string, std::string> cases[] = {
      {"\"", "\\\""},
      {"\\", "\\\\"},
      {"\n", "\\u000a"},
      {"\t", "\\u0009"},
      {"\x01", "\\u0001"},
      {"\x1f", "\\u001f"},
      {"\x7f", "\x7f"},
      {"", ""},
      {"plain / text", "plain / text"},
      {"a\"b\\c\nd\x7f\xc3\xa9", "a\\\"b\\\\c\\u000ad\x7f\xc3\xa9"},
  };
  for (const auto& [raw, escaped] : cases) {
    EXPECT_EQ(jsonEscape(raw), escaped);
    expectWritten(JsonValue{raw}, '"' + escaped + '"', '"' + escaped + '"');
    JsonValue object;
    object.set(raw, raw);
    expectWritten(object, "{\n  \"" + escaped + "\": \"" + escaped + "\"\n}",
                  "{\"" + escaped + "\": \"" + escaped + "\"}");
  }
}

TEST(JsonTest, ContainerBytesArePinned) {
  expectWritten(JsonValue{JsonArray{}}, "[]", "[]");
  expectWritten(JsonValue{JsonObject{}}, "{}", "{}");
  expectWritten(JsonValue{}, "null", "null");
  expectWritten(JsonValue{true}, "true", "true");
  expectWritten(parseJson("[[[]]]"), "[\n  [\n    []\n  ]\n]", "[[[]]]");
  expectWritten(parseJson(R"({"a": {"b": {}}})"), "{\n  \"a\": {\n    \"b\": {}\n  }\n}",
                R"({"a": {"b": {}}})");
  const JsonValue nested =
      parseJson(R"({"a": [], "b": {}, "c": [1, [2, {"d": [null, true]}]], "e": "x"})");
  expectWritten(nested,
                "{\n"
                "  \"a\": [],\n"
                "  \"b\": {},\n"
                "  \"c\": [\n"
                "    1,\n"
                "    [\n"
                "      2,\n"
                "      {\n"
                "        \"d\": [\n"
                "          null,\n"
                "          true\n"
                "        ]\n"
                "      }\n"
                "    ]\n"
                "  ],\n"
                "  \"e\": \"x\"\n"
                "}",
                R"({"a": [], "b": {}, "c": [1, [2, {"d": [null, true]}]], "e": "x"})");
}

std::string nestedArrays(int depth) {
  return std::string(static_cast<std::size_t>(depth), '[') +
         std::string(static_cast<std::size_t>(depth), ']');
}

TEST(JsonTest, ContainerDepthIsCapped) {
  // 1024 levels parse; one more is rejected before the recursion goes on.
  EXPECT_EQ(parseJson(nestedArrays(1024)).dumpLine(), nestedArrays(1024));
  EXPECT_THROW((void)parseJson(nestedArrays(1025)), Error);
  std::string objects;
  for (int i = 0; i < 1025; ++i) objects += R"({"k": )";
  objects += "1" + std::string(1025, '}');
  EXPECT_THROW((void)parseJson(objects), Error);
  // A request-sized hostile body: 100,000 levels inside a member.
  const std::string deep = R"({"source": )" + nestedArrays(100000) + "}";
  try {
    (void)parseJson(deep);
    FAIL() << "100,000 nested arrays accepted";
  } catch (const Error& error) {
    EXPECT_NE(std::string{error.what()}.find("nested deeper than 1024"), std::string::npos)
        << error.what();
  }
}

}  // namespace
}  // namespace rtlock::support
