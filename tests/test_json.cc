/**
 * @file
 * Tests for base/json: the escaper's exact spelling, escape/parse
 * round trips over every byte, exact uint64 reads with overflow
 * rejected, and the reader refusing what is not JSON.
 */

#include <gtest/gtest.h>

#include <string>

#include "base/json.hh"

namespace limit {
namespace {

TEST(Json, EscapeSpellsShortAndControlEscapes)
{
    EXPECT_EQ(json::escape("plain"), "plain");
    EXPECT_EQ(json::escape("a\"b\\c"), "a\\\"b\\\\c");
    EXPECT_EQ(json::escape("\n\t\r"), "\\n\\t\\r");
    EXPECT_EQ(json::escape(std::string("\x01\x1f", 2)), "\\u0001\\u001f");
    EXPECT_EQ(json::escape(std::string(1, '\0')), "\\u0000");
    // UTF-8 and DEL pass through untouched.
    EXPECT_EQ(json::escape("caf\xc3\xa9\x7f"), "caf\xc3\xa9\x7f");
}

TEST(Json, EveryByteRoundTripsThroughEscapeAndParse)
{
    std::string all;
    for (int c = 0; c < 256; ++c)
        all += static_cast<char>(c);
    json::Value v;
    std::string err;
    ASSERT_TRUE(json::parse('"' + json::escape(all) + '"', v, &err)) << err;
    EXPECT_EQ(v.kind, json::Value::Kind::String);
    EXPECT_EQ(v.text, all);
}

TEST(Json, ParsesNestedDocumentsInOrder)
{
    json::Value v;
    ASSERT_TRUE(json::parse(
        " {\"b\": [1, -2.5e1, true, null], \"a\": {\"s\": \"x\\u0041\"}} \n",
        v));
    ASSERT_EQ(v.kind, json::Value::Kind::Object);
    ASSERT_EQ(v.members.size(), 2u);
    EXPECT_EQ(v.members[0].first, "b"); // insertion order kept
    const json::Value *b = v.find("b");
    ASSERT_NE(b, nullptr);
    ASSERT_EQ(b->items.size(), 4u);
    EXPECT_DOUBLE_EQ(b->items[1].number, -25.0);
    EXPECT_TRUE(b->items[2].boolean);
    EXPECT_EQ(b->items[3].kind, json::Value::Kind::Null);
    EXPECT_EQ(v.find("a")->find("s")->text, "xA");
    EXPECT_EQ(v.find("missing"), nullptr);
    EXPECT_EQ(b->find("anything"), nullptr); // not an object
}

TEST(Json, PlainIntegersReadExactlyAndOverflowIsRejected)
{
    const auto uintOf = [](const std::string &text, std::uint64_t &out) {
        json::Value v;
        EXPECT_TRUE(json::parse(text, v)) << text;
        return v.asUint(out);
    };
    std::uint64_t n = 0;
    EXPECT_TRUE(uintOf("0", n));
    EXPECT_EQ(n, 0u);
    // Above 2^53, where a double would round.
    EXPECT_TRUE(uintOf("9007199254740993", n));
    EXPECT_EQ(n, 9007199254740993u);
    EXPECT_TRUE(uintOf("18446744073709551615", n));
    EXPECT_EQ(n, 18446744073709551615u);

    // Valid JSON numbers, but not exact uint64 values.
    for (const char *text : {"18446744073709551616", "99999999999999999999",
                             "-1", "1.0", "1e3", "-0"}) {
        n = 7;
        EXPECT_FALSE(uintOf(text, n)) << text;
        EXPECT_EQ(n, 7u) << text;
    }
    json::Value s;
    ASSERT_TRUE(json::parse("\"12\"", s));
    EXPECT_FALSE(s.asUint(n));
}

TEST(Json, RejectsWhatIsNotJson)
{
    const char *bad[] = {
        "",
        "   ",
        "{",
        "{\"a\":1,}",
        "[1,]",
        "{\"a\" 1}",
        "{a:1}",
        "\"unterminated",
        "\"bad \\q escape\"",
        "\"\\u12g4\"",
        "\"raw \n newline\"",
        "01",
        "1.",
        ".5",
        "+1",
        "1e",
        "-",
        "nan",
        "tru",
        "{} {}",
        "[1] x",
    };
    for (const char *text : bad) {
        json::Value v;
        std::string err;
        EXPECT_FALSE(json::parse(text, v, &err)) << text;
        EXPECT_NE(err.find(" at offset "), std::string::npos) << text;
    }
}

TEST(Json, BoundsNestingDepth)
{
    json::Value v;
    EXPECT_TRUE(json::parse(std::string(200, '[') + std::string(200, ']'),
                            v));
    std::string err;
    EXPECT_FALSE(json::parse(std::string(100000, '['), v, &err));
    EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;
}

} // namespace
} // namespace limit
