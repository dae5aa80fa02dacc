// JSON writer contract: the one string and number rule every emitted
// document follows, read back through the service layer's parser where
// a round trip applies.
#include "support/json_writer.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>

#include "service/json.hpp"

namespace parlap {
namespace {

/// `s` written as a JSON string value.
std::string as_json(std::string_view s) {
  std::string out;
  JsonWriter(out).value(s);
  return out;
}

TEST(JsonEscape, PassesPlainTextThrough) {
  EXPECT_EQ(as_json("grid2d/n=4096"), "\"grid2d/n=4096\"");
  EXPECT_EQ(as_json(""), "\"\"");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls) {
  EXPECT_EQ(as_json("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(as_json("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(as_json("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(as_json("\b\f\r"), "\"\\b\\f\\r\"");
  EXPECT_EQ(as_json(std::string_view("\x00\x01\x1f", 3)),
            "\"\\u0000\\u0001\\u001f\"");
}

TEST(JsonEscape, WellFormedUtf8RoundTripsByteForByte) {
  // Two-, three- and four-byte sequences, including the first and last
  // code points of each length and both sides of the surrogate gap.
  const std::string inputs[] = {
      "caf\xC3\xA9",
      "\xC2\x80\xDF\xBF",
      "\xE2\x82\xAC",
      "\xE0\xA0\x80\xED\x9F\xBF\xEE\x80\x80\xEF\xBF\xBF",
      "\xF0\x9F\x98\x80",
      "\xF0\x90\x80\x80\xF4\x8F\xBF\xBF",
  };
  for (const std::string& s : inputs) {
    const std::string doc = as_json(s);
    EXPECT_EQ(doc, "\"" + s + "\"");
    EXPECT_EQ(service::parse_json(doc).as_string(), s);
  }
}

TEST(JsonEscape, IllFormedBytesBecomeEscapes) {
  // A lone byte, a truncated sequence, an overlong NUL and a UTF-16
  // surrogate: every byte of an ill-formed sequence is written as
  // \u00XX, so the document stays valid UTF-8 (ASCII here).
  EXPECT_EQ(as_json("\xFF"), "\"\\u00ff\"");
  EXPECT_EQ(as_json("\xE2\x82"), "\"\\u00e2\\u0082\"");
  EXPECT_EQ(as_json("\xC0\x80"), "\"\\u00c0\\u0080\"");
  EXPECT_EQ(as_json("\xED\xA0\x80"), "\"\\u00ed\\u00a0\\u0080\"");
  EXPECT_EQ(as_json("\xF4\x90\x80\x80"),
            "\"\\u00f4\\u0090\\u0080\\u0080\"");  // past U+10FFFF
  // Well-formed text around a bad byte still passes through.
  EXPECT_EQ(as_json("a\xC3\xA9\xFF" "b"), "\"a\xC3\xA9\\u00ff" "b\"");
  // Read back, an escaped byte is the code point of the same number.
  EXPECT_EQ(service::parse_json(as_json("\xFF")).as_string(), "\xC3\xBF");
}

TEST(JsonNumbers, IntegralDoublesPrintWithoutFraction) {
  EXPECT_EQ(JsonWriter::format_number(4096.0), "4096");
  EXPECT_EQ(JsonWriter::format_number(-3.0), "-3");
  EXPECT_EQ(JsonWriter::format_number(0.0), "0");
}

TEST(JsonNumbers, NonFiniteBecomesNull) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(JsonWriter::format_number(std::nan("")), "null");
  EXPECT_EQ(JsonWriter::format_number(kInf), "null");
  EXPECT_EQ(JsonWriter::format_number(-kInf), "null");
}

TEST(JsonNumbers, FractionsRoundTrip) {
  const double x = 0.1234567890123;
  EXPECT_DOUBLE_EQ(std::strtod(JsonWriter::format_number(x).c_str(), nullptr),
                   x);
}

TEST(JsonNumbers, IntegersPrintExactly) {
  std::string out;
  JsonWriter w(out);
  w.begin_array();
  w.value((std::uint64_t{1} << 53) + 1);
  w.value(std::numeric_limits<std::uint64_t>::max());
  w.value(std::numeric_limits<std::int64_t>::min());
  w.end_array();
  EXPECT_EQ(out,
            "[9007199254740993,18446744073709551615,-9223372036854775808]");
}

TEST(JsonWriterTest, NestedStructureHasBalancedCommas) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.member("a", std::int64_t{1});
  w.member("b", "x");
  w.key("c");
  w.begin_array();
  w.value(1.5);
  w.value(std::nan(""));
  w.begin_object();
  w.member("d", true);
  w.end_object();
  w.end_array();
  w.member("e", false);
  w.end_object();
  EXPECT_EQ(out, R"({"a":1,"b":"x","c":[1.5,null,{"d":true}],"e":false})");
}

TEST(JsonWriterTest, AppendsToTheCallersStringAcrossClears) {
  // Streaming writers flush and clear the string between values; the
  // comma state lives in the writer, not in the text.
  std::string out = "prefix ";
  JsonWriter w(out);
  w.begin_array();
  w.value(1);
  EXPECT_EQ(out, "prefix [1");
  out.clear();
  w.value(2);
  w.end_array();
  EXPECT_EQ(out, ",2]");
}

}  // namespace
}  // namespace parlap
