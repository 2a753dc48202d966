// common/json.hpp, the one JSON reader: tools/bench_compare reads the
// BENCH baselines with it and serve::parse_trace_line reads trace lines.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <string>

namespace bbal {
namespace {

using Kind = JsonValue::Kind;

TEST(Json, ReadsNestedObjectsAndArraysInFileOrder) {
  const auto doc = parse_json(
      R"( {"rows": [{"a": 1}, [], {}], "meta": {"b": {"c": null}}} )");
  ASSERT_TRUE(doc.is_ok()) << doc.message();
  const JsonValue& root = doc.value();
  ASSERT_EQ(root.kind, Kind::kObject);
  ASSERT_EQ(root.object.size(), 2u);
  EXPECT_EQ(root.object[0].first, "rows");
  EXPECT_EQ(root.object[1].first, "meta");
  EXPECT_EQ(root.find("missing"), nullptr);

  const JsonValue* rows = root.find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->kind, Kind::kArray);
  ASSERT_EQ(rows->array.size(), 3u);
  ASSERT_NE(rows->array[0].find("a"), nullptr);
  EXPECT_EQ(rows->array[0].find("a")->number, 1.0);
  EXPECT_EQ(rows->array[1].kind, Kind::kArray);
  EXPECT_TRUE(rows->array[1].array.empty());
  EXPECT_EQ(rows->array[2].kind, Kind::kObject);
  EXPECT_TRUE(rows->array[2].object.empty());

  const JsonValue* b = root.find("meta")->find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_NE(b->find("c"), nullptr);
  EXPECT_EQ(b->find("c")->kind, Kind::kNull);
}

TEST(Json, DecodesTheSupportedEscapesInValuesAndKeys) {
  const auto doc = parse_json(R"({"k\"ey": "a\"b\\c\/d\ne\tf\rg"})");
  ASSERT_TRUE(doc.is_ok()) << doc.message();
  const JsonValue* value = doc.value().find("k\"ey");
  ASSERT_NE(value, nullptr);
  EXPECT_EQ(value->kind, Kind::kString);
  EXPECT_EQ(value->text, "a\"b\\c/d\ne\tf\rg");
}

TEST(Json, ReadsTheLiterals) {
  const auto doc = parse_json("[true, false, null]");
  ASSERT_TRUE(doc.is_ok()) << doc.message();
  const auto& items = doc.value().array;
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].kind, Kind::kBool);
  EXPECT_TRUE(items[0].boolean);
  EXPECT_EQ(items[1].kind, Kind::kBool);
  EXPECT_FALSE(items[1].boolean);
  EXPECT_EQ(items[2].kind, Kind::kNull);
}

TEST(Json, NumbersKeepTheirSourceText) {
  struct Case {
    const char* text;
    double value;
  };
  const Case cases[] = {
      // Integers, one of them past 32 bits.
      {"0", 0.0},
      {"-17", -17.0},
      {"4294967301", 4294967301.0},
      // Fractions and exponents.
      {"-0.25", -0.25},
      {"1e3", 1000.0},
      {"2.5E-2", 0.025},
      {"-4.06759e-05", -4.06759e-05},
  };
  for (const Case& c : cases) {
    const auto number = parse_json(c.text);
    ASSERT_TRUE(number.is_ok()) << c.text << ": " << number.message();
    EXPECT_EQ(number.value().kind, Kind::kNumber) << c.text;
    EXPECT_EQ(number.value().number, c.value) << c.text;
    EXPECT_EQ(number.value().text, c.text);
  }
  // Inside a container the text is the number's own characters.
  const auto doc = parse_json("[ 12 , -3e1 ]");
  ASSERT_TRUE(doc.is_ok()) << doc.message();
  ASSERT_EQ(doc.value().array.size(), 2u);
  EXPECT_EQ(doc.value().array[0].text, "12");
  EXPECT_EQ(doc.value().array[1].text, "-3e1");
  EXPECT_EQ(doc.value().array[1].number, -30.0);
}

TEST(Json, ErrorsSayWhatAndWhereByByteOffset) {
  struct Case {
    std::string text;
    const char* message;
  };
  const Case cases[] = {
      // Truncated input.
      {"", "unexpected end at offset 0"},
      {R"({"a": )", "unexpected end at offset 6"},
      {R"({"a": [1, 2)", "expected ',' or ']' at offset 11"},
      {R"({"a": "xy)", "unterminated string at offset 9"},
      // Trailing characters, including a leading zero.
      {R"({"a": 1} x)", "trailing characters at offset 9"},
      {"01", "trailing characters at offset 1"},
      // A bad escape is reported at its backslash.
      {R"({"a": "x\q"})", "bad escape at offset 8"},
      {R"("\u0041")", "bad escape at offset 1"},
      // Bad literals and numbers.
      {"[tru]", "bad literal at offset 1"},
      {"nul", "bad literal at offset 0"},
      {"1.", "bad number at offset 2"},
      {"-x", "bad number at offset 1"},
      {"+1", "bad number at offset 0"},
      {"1e999", "number out of range at offset 0"},
      // Structure.
      {R"({"a" 1})", "expected ':' at offset 5"},
      {"{1: 2}", "expected object key at offset 1"},
      {"[1 2]", "expected ',' or ']' at offset 3"},
      {std::string(65, '[') + std::string(65, ']'),
       "nesting too deep at offset 64"},
  };
  for (const Case& c : cases) {
    const auto result = parse_json(c.text);
    ASSERT_FALSE(result.is_ok()) << c.text;
    EXPECT_EQ(result.message(), c.message) << c.text;
  }
  // The deepest nesting allowed still parses.
  EXPECT_TRUE(parse_json(std::string(64, '[') + std::string(64, ']')).is_ok());
}

}  // namespace
}  // namespace bbal
