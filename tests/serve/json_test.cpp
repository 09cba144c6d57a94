#include "serve/json.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>

namespace ifsyn::serve {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(parse_json("null")->is_null());
  EXPECT_TRUE(parse_json("true")->as_bool());
  EXPECT_FALSE(parse_json("false")->as_bool());
  EXPECT_EQ(parse_json("42")->as_number(), 42);
  EXPECT_EQ(parse_json("-3.5")->as_number(), -3.5);
  EXPECT_EQ(parse_json("\"hi\"")->as_string(), "hi");
}

TEST(JsonTest, ParsesNestedStructures) {
  Result<Json> json =
      parse_json(R"({"op": "synth", "n": [1, 2, 3], "o": {"k": true}})");
  ASSERT_TRUE(json.is_ok());
  EXPECT_EQ(json->find("op")->as_string(), "synth");
  EXPECT_EQ(json->find("n")->as_array().size(), 3u);
  EXPECT_TRUE(json->find("o")->find("k")->as_bool());
  EXPECT_EQ(json->find("missing"), nullptr);
}

TEST(JsonTest, ParsesStringEscapes) {
  Result<Json> json = parse_json(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(json.is_ok());
  EXPECT_EQ(json->as_string(), "a\"b\\c\ndA");
}

TEST(JsonTest, DecodesUnicodeEscapesToUtf8) {
  EXPECT_EQ(parse_json(R"("caf\u00e9")")->as_string(), "caf\xc3\xa9");
  EXPECT_EQ(parse_json(R"("\u20ac")")->as_string(), "\xe2\x82\xac");
  // A surrogate pair is one astral code point: 4-byte UTF-8.
  Result<Json> rocket = parse_json(R"("\ud83d\ude80")");
  ASSERT_TRUE(rocket.is_ok()) << rocket.status();
  EXPECT_EQ(rocket->as_string(), "\xf0\x9f\x9a\x80");
}

TEST(JsonTest, RejectsLoneAndMalformedSurrogates) {
  const std::pair<const char*, const char*> cases[] = {
      {R"("\udc00")", "lone low surrogate"},
      {R"("\ud83d")", "high surrogate"},
      {R"("\ud83d oops")", "high surrogate"},
      {R"("\ud83d\u0041")", "high surrogate"},
      {R"("\u12G4")", "non-hex digit"},
      {R"("\u00)", "truncated"},
      {R"("\q")", "unknown escape"},
  };
  for (const auto& [bad, why] : cases) {
    Result<Json> json = parse_json(bad);
    ASSERT_FALSE(json.is_ok()) << "accepted: " << bad;
    EXPECT_NE(json.status().message().find(why), std::string::npos)
        << json.status().message();
  }
}

TEST(JsonTest, DumpRoundTripsAndIsDeterministic) {
  const std::string text =
      R"({"id":"r1","n":7,"nested":{"a":[1,true,null],"b":"x\ny"}})";
  Result<Json> json = parse_json(text);
  ASSERT_TRUE(json.is_ok());
  const std::string once = json->dump();
  // Members serialize in sorted key order regardless of input order.
  Result<Json> reordered =
      parse_json(R"({"nested":{"b":"x\ny","a":[1,true,null]},"n":7,"id":"r1"})");
  ASSERT_TRUE(reordered.is_ok());
  EXPECT_EQ(once, reordered->dump());
  EXPECT_EQ(once, parse_json(once)->dump());
}

TEST(JsonTest, IntegersDumpWithoutDecimalPoint) {
  JsonObject object;
  object["us"] = std::uint64_t{1234567};
  EXPECT_EQ(Json(std::move(object)).dump(), "{\"us\":1234567}");
}

// ---- hardened-ingestion negatives: garbage must be a structured error,
// never a crash or an accepted value -----------------------------------

TEST(JsonTest, RejectsGarbage) {
  for (const char* bad :
       {"", "{", "}", "[1,", "{\"a\"}", "{\"a\":}", "\"unterminated",
        "{\"a\":1,}", "nul", "tru", "+5", "1.2.3", "{\"a\":1}trailing",
        "[1 2]", "\"\x01\""}) {
    Result<Json> json = parse_json(bad);
    EXPECT_FALSE(json.is_ok()) << "accepted: " << bad;
    EXPECT_EQ(json.status().code(), StatusCode::kInvalidArgument);
    // Diagnostics carry a byte offset.
    EXPECT_NE(json.status().message().find("offset"), std::string::npos);
  }
}

TEST(JsonTest, RejectsExcessiveNesting) {
  std::string deep;
  for (int i = 0; i < 200; ++i) deep += '[';
  for (int i = 0; i < 200; ++i) deep += ']';
  Result<Json> json = parse_json(deep);
  ASSERT_FALSE(json.is_ok());
  EXPECT_NE(json.status().message().find("nesting"), std::string::npos);
}

TEST(JsonTest, QuoteEscapesControlCharacters) {
  EXPECT_EQ(json_quote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(json_quote("a\nb"), "\"a\\nb\"");
  EXPECT_EQ(json_quote(std::string("a\x01") + "b"), "\"a\\u0001b\"");
  EXPECT_EQ(json_quote("a\tb\rc"), "\"a\\tb\\rc\"");
  // Every byte below 0x20 round-trips through the parser.
  std::string all;
  for (int c = 0; c < 0x20; ++c) all += static_cast<char>(c);
  Result<Json> parsed = parse_json(json_quote(all));
  ASSERT_TRUE(parsed.is_ok()) << parsed.status();
  EXPECT_EQ(parsed->as_string(), all);
}

}  // namespace
}  // namespace ifsyn::serve
