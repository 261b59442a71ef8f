// Tests for util/json.h — the minimal parser behind campaign specs and
// JSONL resume records.
#include "util/json.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace anole {
namespace {

TEST(Json, ParsesScalars) {
    EXPECT_TRUE(json_parse("null").is_null());
    EXPECT_TRUE(json_parse("true").as_bool());
    EXPECT_FALSE(json_parse("false").as_bool());
    EXPECT_DOUBLE_EQ(json_parse("3.25").as_number(), 3.25);
    EXPECT_DOUBLE_EQ(json_parse("-17").as_number(), -17.0);
    EXPECT_DOUBLE_EQ(json_parse("1e3").as_number(), 1000.0);
    EXPECT_EQ(json_parse("\"hi\"").as_string(), "hi");
    EXPECT_EQ(json_parse("  42  ").as_uint(), 42u);
}

TEST(Json, ParsesContainers) {
    const json_value v = json_parse(
        R"({"families": ["barbell", "ws"], "sizes": [64, 256], "seeds": 8,
            "nested": {"deep": [true, null]}})");
    ASSERT_TRUE(v.is_object());
    EXPECT_EQ(v.at("families").as_array().size(), 2u);
    EXPECT_EQ(v.at("families").as_array()[1].as_string(), "ws");
    EXPECT_EQ(v.at("sizes").as_array()[1].as_uint(), 256u);
    EXPECT_EQ(v.at("seeds").as_uint(), 8u);
    EXPECT_TRUE(v.at("nested").at("deep").as_array()[0].as_bool());
    EXPECT_TRUE(v.at("nested").at("deep").as_array()[1].is_null());
    EXPECT_TRUE(v.contains("seeds"));
    EXPECT_FALSE(v.contains("missing"));
}

TEST(Json, ParsesEmptyContainers) {
    EXPECT_TRUE(json_parse("{}").as_object().empty());
    EXPECT_TRUE(json_parse("[]").as_array().empty());
    EXPECT_TRUE(json_parse("[ ]").as_array().empty());
}

TEST(Json, DecodesStringEscapes) {
    EXPECT_EQ(json_parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
    EXPECT_EQ(json_parse(R"("Aé")").as_string(), "A\xc3\xa9");
    // Surrogate pair: U+1F600.
    EXPECT_EQ(json_parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");
}

TEST(Json, RejectsMalformedInput) {
    for (const char* bad :
         {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated", "01a", "1 2",
          "{\"a\" 1}", "\"bad \\x escape\"", "nul", "[1,2,]x"}) {
        EXPECT_THROW((void)json_parse(bad), error) << "input: " << bad;
    }
}

// Every parser error names its byte offset; the table pins the exact
// text so the error paths cannot drift when the parser is reworked.
TEST(Json, MalformedInputMessagesPinTextAndOffset) {
    struct bad_case {
        std::string input;
        const char* what;
    };
    const std::vector<bad_case> cases = {
        {"\"abc", "json parse error at byte 4: unterminated string"},
        {std::string("\"a\x01" "b\""),
         "json parse error at byte 3: raw control character in string"},
        {R"("\x")", "json parse error at byte 3: bad escape character"},
        {R"("\)", "json parse error at byte 2: unterminated escape"},
        {R"("\u12")", "json parse error at byte 3: truncated \\u escape"},
        {R"("\u12G4")", "json parse error at byte 6: bad hex digit in \\u escape"},
        {R"("\uD800x")", "json parse error at byte 7: unpaired surrogate"},
        {R"("\uD800\u0041")", "json parse error at byte 13: bad low surrogate"},
        {"-", "json parse error at byte 1: bad number"},
        {"[1.2.3]", "json parse error at byte 6: bad number"},
        {"1 2", "json parse error at byte 2: trailing content after JSON value"},
        {R"({"a" 1})", "json parse error at byte 5: expected ':'"},
        {R"({"a":1 2})", "json parse error at byte 7: expected '}'"},
        {"[1 2]", "json parse error at byte 3: expected ']'"},
        {"{1:2}", "json parse error at byte 1: expected '\"'"},
        {"{", "json parse error at byte 1: unexpected end of input"},
        {"", "json parse error at byte 0: unexpected end of input"},
        {"tru", "json parse error at byte 0: bad literal"},
        {std::string(257, '['), "json parse error at byte 256: nesting too deep"},
    };
    for (const bad_case& c : cases) {
        try {
            (void)json_parse(c.input);
            ADD_FAILURE() << "no throw for input: " << c.input;
        } catch (const error& e) {
            EXPECT_STREQ(e.what(), c.what) << "input: " << c.input;
        }
    }
    // 256 levels is the limit, not past it.
    const std::string deepest = std::string(256, '[') + std::string(256, ']');
    EXPECT_NO_THROW((void)json_parse(deepest));

    const json_value v = json_parse(R"({"a": 1})");
    try {
        (void)v.at("missing");
        ADD_FAILURE() << "no throw for a missing key";
    } catch (const error& e) {
        EXPECT_STREQ(e.what(), "json: missing key 'missing'");
    }
}

TEST(Json, TypeMismatchesThrow) {
    const json_value v = json_parse(R"({"a": 1})");
    EXPECT_THROW((void)v.as_array(), error);
    EXPECT_THROW((void)v.at("a").as_string(), error);
    EXPECT_THROW((void)v.at("b"), error);
    EXPECT_THROW((void)json_parse("-1").as_uint(), error);
    EXPECT_THROW((void)json_parse("1.5").as_uint(), error);
}

TEST(Json, EscapeRoundTripsThroughParse) {
    const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
    std::string wire = "\"";  // append: dodges the GCC 12 -Wrestrict bug
    wire.append(json_escape(nasty));
    wire.append("\"");
    EXPECT_EQ(json_parse(wire).as_string(), nasty);
}

}  // namespace
}  // namespace anole
