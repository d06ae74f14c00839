// util/json_parse: the read side of the JSON plumbing plus the
// canonical (sorted-key) writer the determinism gate depends on.
#include <gtest/gtest.h>

#include <sstream>

#include "opto/util/json_parse.hpp"

namespace opto {
namespace {

std::string rewrite(const std::string& text, bool sorted = false) {
  const auto value = parse_json(text);
  EXPECT_TRUE(value.has_value()) << text;
  std::ostringstream out;
  if (value) write_json(out, *value, sorted);
  return out.str();
}

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(parse_json("null")->is_null());
  EXPECT_TRUE(parse_json("true")->boolean);
  EXPECT_FALSE(parse_json("false")->boolean);
  EXPECT_DOUBLE_EQ(parse_json("-12.5e2")->as_number(), -1250.0);
  EXPECT_EQ(parse_json("\"hi\"")->as_string(), "hi");
}

TEST(JsonParse, NumbersKeepTheirSourceSpelling) {
  // 2^53 + 1 has no double; the spelling keeps it for integer readers.
  const auto value = parse_json(R"([9007199254740993, -1.50e2, 7])");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->items[0].text, "9007199254740993");
  EXPECT_DOUBLE_EQ(value->items[0].number, 9007199254740992.0);
  EXPECT_EQ(value->items[1].text, "-1.50e2");
  EXPECT_EQ(value->items[2].text, "7");
  EXPECT_EQ(rewrite("[7]"), "[7]");
}

TEST(JsonParse, ObjectAndArrayAccessors) {
  const auto value = parse_json(
      R"({"name":"mesh","n":64,"tags":["a","b"],"nested":{"x":1.5}})");
  ASSERT_TRUE(value.has_value());
  EXPECT_EQ(value->string_at("name"), "mesh");
  EXPECT_DOUBLE_EQ(value->number_at("n"), 64.0);
  EXPECT_EQ(value->number_at("absent", -1.0), -1.0);
  const JsonValue* tags = value->find("tags");
  ASSERT_NE(tags, nullptr);
  ASSERT_TRUE(tags->is_array());
  ASSERT_EQ(tags->items.size(), 2u);
  EXPECT_EQ(tags->items[1].as_string(), "b");
  const JsonValue* nested = value->find("nested");
  ASSERT_NE(nested, nullptr);
  EXPECT_DOUBLE_EQ(nested->number_at("x"), 1.5);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(parse_json(R"("a\"b\\c\n\t")")->as_string(), "a\"b\\c\n\t");
  // \u escapes incl. a surrogate pair (U+1D11E, the G clef).
  EXPECT_EQ(parse_json(R"("\u0041")")->as_string(), "A");
  EXPECT_EQ(parse_json(R"("\ud834\udd1e")")->as_string(),
            "\xF0\x9D\x84\x9E");
  EXPECT_FALSE(parse_json(R"("\ud834")").has_value());  // lone surrogate
}

TEST(JsonParse, RejectsMalformed) {
  std::string error;
  EXPECT_FALSE(parse_json("", &error).has_value());
  EXPECT_FALSE(parse_json("{", &error).has_value());
  EXPECT_FALSE(parse_json("[1,]", &error).has_value());
  EXPECT_FALSE(parse_json("{\"a\":1,}", &error).has_value());
  EXPECT_FALSE(parse_json("{'a':1}", &error).has_value());
  EXPECT_FALSE(parse_json("nul", &error).has_value());
  EXPECT_FALSE(parse_json("1 2", &error).has_value());  // trailing garbage
  EXPECT_FALSE(parse_json("\"unterminated", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(JsonParse, RejectsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  EXPECT_FALSE(parse_json(deep).has_value());
  // A modest depth is fine.
  std::string ok = "1";
  for (int i = 0; i < 50; ++i) ok = "[" + ok + "]";
  EXPECT_TRUE(parse_json(ok).has_value());
}

TEST(JsonParse, RoundTripPreservesDocumentOrder) {
  const std::string doc = R"({"b":1,"a":{"z":true,"y":null},"c":[1,2.5]})";
  EXPECT_EQ(rewrite(doc), doc);
}

TEST(JsonParse, SortedKeysAreCanonical) {
  // Same content, different member order → identical canonical text.
  EXPECT_EQ(rewrite(R"({"b":1,"a":2})", true),
            rewrite(R"({"a":2,"b":1})", true));
  EXPECT_EQ(rewrite(R"({"b":{"d":1,"c":2},"a":3})", true),
            R"({"a":3,"b":{"c":2,"d":1}})");
}

TEST(JsonParse, IntegralNumbersPrintWithoutExponent) {
  // Counter values must survive a parse→write cycle textually: the
  // determinism job byte-compares them.
  EXPECT_EQ(rewrite("123456789012"), "123456789012");
  EXPECT_EQ(rewrite("0"), "0");
  EXPECT_EQ(rewrite("-7"), "-7");
}

TEST(JsonParse, BuilderHelpers) {
  JsonValue object = JsonValue::make_object();
  object.add_member("flag", JsonValue::of(true));
  object.add_member("name", JsonValue::of("x"));
  object.add_member("n", JsonValue::of(3.0));
  JsonValue list = JsonValue::make_array();
  list.items.push_back(JsonValue::of(1.0));
  object.add_member("list", std::move(list));
  std::ostringstream out;
  write_json(out, object);
  EXPECT_EQ(out.str(), R"({"flag":true,"name":"x","n":3,"list":[1]})");
}

}  // namespace
}  // namespace opto
