//===- tests/test_json.cpp - The shared JSON value, parser and writer ---------===//
//
// Part of cundef, a semantics-based undefinedness checker for C.
//
// support/Json.h is the one codec behind kcc --json, the coverage
// document and every wire frame. These tests pin its contract: strict
// RFC 8259 parsing (number grammar, UTF-8 for escapes above the byte
// range, surrogate pairs), the byte-transparent \u00XX convention in
// both directions, exact 64-bit integers, and the two write layouts.
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"

#include <gtest/gtest.h>

using namespace cundef;

namespace {

JsonValue parseOk(const std::string &Text) {
  JsonValue V;
  std::string Err;
  EXPECT_TRUE(JsonValue::parse(Text, V, Err)) << Text << ": " << Err;
  return V;
}

bool rejects(const std::string &Text) {
  JsonValue V;
  std::string Err;
  bool Ok = JsonValue::parse(Text, V, Err);
  return !Ok && !Err.empty();
}

} // namespace

//===----------------------------------------------------------------------===//
// Parser conformance
//===----------------------------------------------------------------------===//

TEST(JsonParse, TwoByteCodePointsAreNotOverlong) {
  // U+0100 is C4 80 in UTF-8; a three-byte E0 84 80 would be overlong.
  EXPECT_EQ(parseOk("\"\\u0100\"").asString(), "\xC4\x80");
  EXPECT_EQ(parseOk("\"\\u07ff\"").asString(), "\xDF\xBF");
  EXPECT_EQ(parseOk("\"\\u0800\"").asString(), "\xE0\xA0\x80");
}

TEST(JsonParse, SurrogatePairsCombine) {
  // U+1F600 is the pair D83D DE00 and four bytes of UTF-8.
  EXPECT_EQ(parseOk("\"\\ud83d\\ude00\"").asString(), "\xF0\x9F\x98\x80");
  EXPECT_EQ(parseOk("\"\\uDBFF\\uDFFF\"").asString(), "\xF4\x8F\xBF\xBF");
}

TEST(JsonParse, LoneSurrogatesAreRejected) {
  EXPECT_TRUE(rejects("\"\\ud83d\""));
  EXPECT_TRUE(rejects("\"\\ud83dx\""));
  EXPECT_TRUE(rejects("\"\\ud83d\\u0041\""));
  EXPECT_TRUE(rejects("\"\\ude00\""));
}

TEST(JsonParse, LeadingZeroIsRejected) {
  EXPECT_TRUE(rejects("01"));
  EXPECT_TRUE(rejects("[-01]"));
  EXPECT_EQ(parseOk("0").asU64(7), 0u);
  EXPECT_EQ(parseOk("-0").asU64(7), 0u);
}

TEST(JsonParse, FractionNeedsDigits) {
  EXPECT_TRUE(rejects("1."));
  EXPECT_TRUE(rejects("{\"a\":1.}"));
  EXPECT_TRUE(rejects(".5"));
  EXPECT_DOUBLE_EQ(parseOk("{\"v\":1.5}").getDouble("v"), 1.5);
}

TEST(JsonParse, ExponentNeedsDigits) {
  EXPECT_TRUE(rejects("1e"));
  EXPECT_TRUE(rejects("1e+"));
  EXPECT_TRUE(rejects("[1E-]"));
  EXPECT_DOUBLE_EQ(parseOk("{\"v\":2.5e2}").getDouble("v"), 250.0);
}

TEST(JsonParse, NonFiniteNumbersAreRejected) {
  EXPECT_TRUE(rejects("1e999"));
  EXPECT_TRUE(rejects("-1e999"));
}

TEST(JsonParse, NestingIsBounded) {
  EXPECT_TRUE(rejects(std::string(10000, '[') + std::string(10000, ']')));
  std::string Deep;
  for (int I = 0; I < 10000; ++I)
    Deep += "{\"a\":";
  EXPECT_TRUE(rejects(Deep + "1" + std::string(10000, '}')));
  EXPECT_TRUE(parseOk(std::string(32, '[') + std::string(32, ']')).isArray());
}

TEST(JsonParse, StructuralErrors) {
  for (const char *Bad : {"", "{", "[1,]", "{\"a\" 1}", "{\"a\":1,}", "[1 2]",
                          "\"unterminated", "\"\x01\"", "\"\\x\"", "tru",
                          "nul", "1 2", "{1:2}", "\"\\u12\"", "\"\\u12g4\""})
    EXPECT_TRUE(rejects(Bad)) << Bad;
}

//===----------------------------------------------------------------------===//
// Integers
//===----------------------------------------------------------------------===//

TEST(JsonNumbers, IntegersAreExactToSixtyFourBits) {
  JsonValue V = parseOk("[9007199254740993, 18446744073709551615, "
                        "-9223372036854775808]");
  ASSERT_EQ(V.items().size(), 3u);
  EXPECT_EQ(V.items()[0].asU64(), 9007199254740993ull);
  EXPECT_EQ(V.items()[1].asU64(), 18446744073709551615ull);
  int64_t Min = 0;
  EXPECT_TRUE(V.items()[2].toInt(Min));
  EXPECT_EQ(Min, INT64_MIN);
  EXPECT_EQ(JsonValue(18446744073709551615ull).compact(),
            "18446744073709551615");
  EXPECT_EQ(JsonValue(INT64_MIN).compact(), "-9223372036854775808");
}

TEST(JsonNumbers, IntegerAccessorsRejectWhatDoesNotFit) {
  // Neither UB nor silent truncation: the fallback comes back.
  JsonValue V = parseOk("{\"big\":1e30,\"frac\":1.5,\"neg\":-1,"
                        "\"over\":18446744073709551616,\"ok\":42}");
  EXPECT_EQ(V.getU64("big", 7), 7u);
  EXPECT_EQ(V.getU64("frac", 7), 7u);
  EXPECT_EQ(V.getU64("neg", 7), 7u);
  EXPECT_EQ(V.getU64("over", 7), 7u);
  EXPECT_EQ(V.getU64("ok", 7), 42u);
  EXPECT_DOUBLE_EQ(V.getDouble("over"), 18446744073709551616.0);

  unsigned Narrow = 3;
  EXPECT_FALSE(parseOk("{\"n\":4294967296}").getInt("n", Narrow));
  EXPECT_EQ(Narrow, 3u);
  EXPECT_TRUE(parseOk("{\"n\":4294967295}").getInt("n", Narrow));
  EXPECT_EQ(Narrow, 4294967295u);
  EXPECT_TRUE(parseOk("{}").getInt("n", Narrow));
  int Signed = 0;
  EXPECT_TRUE(parseOk("{\"n\":-2147483648}").getInt("n", Signed));
  EXPECT_EQ(Signed, INT32_MIN);
  EXPECT_FALSE(parseOk("{\"n\":-2147483649}").getInt("n", Signed));
}

//===----------------------------------------------------------------------===//
// Strings
//===----------------------------------------------------------------------===//

TEST(JsonStrings, EveryByteRoundTrips) {
  std::string All;
  for (int B = 0; B < 256; ++B)
    All += static_cast<char>(B);
  std::string Text = JsonValue(All).compact();
  for (char C : Text)
    EXPECT_TRUE(C >= 0x20 && C < 0x7f) << "non-ASCII output byte";
  EXPECT_EQ(parseOk(Text).asString(), All);
  // Each byte alone, too (the escape choice differs per class).
  for (int B = 0; B < 256; ++B) {
    std::string One(1, static_cast<char>(B));
    EXPECT_EQ(parseOk(JsonValue(One).compact()).asString(), One) << B;
  }
}

TEST(JsonStrings, EscapeSpellings) {
  EXPECT_EQ(JsonValue(std::string("a\"b\\c\n\t\r\b\f\x01\x7f\xff/", 14))
                .compact(),
            "\"a\\\"b\\\\c\\n\\t\\r\\b\\f\\u0001\\u007f\\u00ff/\"");
  EXPECT_EQ(parseOk("\"\\/\\u00e9\"").asString(), "/\xE9");
}

//===----------------------------------------------------------------------===//
// Writer layouts
//===----------------------------------------------------------------------===//

TEST(JsonWrite, CompactHasNoWhitespace) {
  JsonValue Inner = JsonValue::object();
  Inner.set("b", JsonValue::array().push(1).push(0)).set("c", true);
  JsonValue V = JsonValue::object();
  V.set("a", "x").set("o", std::move(Inner)).set("d", JsonValue(1.5, 3));
  EXPECT_EQ(V.compact(), "{\"a\":\"x\",\"o\":{\"b\":[1,0],\"c\":true},"
                         "\"d\":1.500}");
  EXPECT_EQ(JsonValue().compact(), "null");
}

TEST(JsonWrite, PrettyLayoutRule) {
  JsonValue Flat = JsonValue::object();
  Flat.set("id", 1).set("codes", JsonValue::array().push(1).push(2));
  JsonValue Nested = JsonValue::object();
  Nested.set("inner", JsonValue::object().set("k", 1));
  JsonValue Doc = JsonValue::object();
  Doc.set("empty", JsonValue::array())
      .set("scalars", JsonValue::array().push(1).push(0))
      .set("items", JsonValue::array().push(Flat).push(Nested))
      .set("wall_ms", JsonValue(2.0 / 3.0, 2));
  EXPECT_EQ(Doc.pretty(), "{\n"
                          "  \"empty\": [],\n"
                          "  \"scalars\": [1, 0],\n"
                          "  \"items\": [\n"
                          "    {\"id\": 1, \"codes\": [1, 2]},\n"
                          "    {\n"
                          "      \"inner\": {\n"
                          "        \"k\": 1\n"
                          "      }\n"
                          "    }\n"
                          "  ],\n"
                          "  \"wall_ms\": 0.67\n"
                          "}\n");
}

TEST(JsonWrite, ParsedDocumentsRoundTrip) {
  const std::string Text = "{\"a\":[1,-2,3.25,true,false,null,\"s\"],"
                           "\"b\":{\"c\":{}},\"d\":[]}";
  EXPECT_EQ(parseOk(Text).compact(), Text);
  // Duplicate keys: lookups see the last occurrence.
  EXPECT_EQ(parseOk("{\"k\":1,\"k\":2}").getU64("k"), 2u);
}
