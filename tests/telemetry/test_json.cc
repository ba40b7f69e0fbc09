/**
 * @file
 * Tests for the minimal JSON value-tree parser and its string writer.
 *
 * The parser validates actstat inputs and the telemetry export tests,
 * so the suite leans on rejection behaviour: malformed documents must
 * fail with a diagnostic, never parse to something plausible.
 */

#include <gtest/gtest.h>

#include <string>

#include "telemetry/json.hh"

namespace act::telemetry
{
namespace
{

TEST(JsonParser, ParsesScalars)
{
    EXPECT_TRUE(parseJson("null")->isNull());
    EXPECT_TRUE(parseJson("true")->boolean);
    EXPECT_FALSE(parseJson("false")->boolean);
    EXPECT_DOUBLE_EQ(parseJson("-12.5e2")->number, -1250.0);
    EXPECT_EQ(parseJson("\"hi\"")->text, "hi");
}

TEST(JsonParser, ParsesNestedStructure)
{
    const auto root = parseJson(
        R"({"a": [1, 2, {"b": null}], "c": {"d": true}, "e": "x"})");
    ASSERT_NE(root, nullptr);
    ASSERT_TRUE(root->isObject());
    const JsonValue *a = root->find("a");
    ASSERT_NE(a, nullptr);
    ASSERT_TRUE(a->isArray());
    ASSERT_EQ(a->array.size(), 3u);
    EXPECT_EQ(a->array[1].asU64(), 2u);
    EXPECT_TRUE(a->array[2].find("b")->isNull());
    EXPECT_TRUE(root->find("c")->find("d")->boolean);
    EXPECT_EQ(root->find("missing"), nullptr);
}

TEST(JsonParser, ObjectKeysKeepDocumentOrder)
{
    const auto root = parseJson(R"({"z": 1, "a": 2, "m": 3})");
    ASSERT_NE(root, nullptr);
    ASSERT_EQ(root->object.size(), 3u);
    EXPECT_EQ(root->object[0].first, "z");
    EXPECT_EQ(root->object[1].first, "a");
    EXPECT_EQ(root->object[2].first, "m");
}

TEST(JsonParser, DecodesEscapes)
{
    const auto root = parseJson(R"("a\"b\\c\nd\teAé")");
    ASSERT_NE(root, nullptr);
    EXPECT_EQ(root->text, "a\"b\\c\nd\teA\xc3\xa9");
}

TEST(JsonParser, AsU64Semantics)
{
    EXPECT_EQ(parseJson("42")->asU64(), 42u);
    EXPECT_EQ(parseJson("-3")->asU64(), 0u);   // negatives clamp
    EXPECT_EQ(parseJson("\"7\"")->asU64(), 0u); // non-numbers are 0
}

TEST(JsonParser, RejectsMalformedInput)
{
    std::string error;
    EXPECT_EQ(parseJson("", &error), nullptr);
    EXPECT_EQ(parseJson("{", &error), nullptr);
    EXPECT_EQ(parseJson("[1, 2", &error), nullptr);
    EXPECT_EQ(parseJson("\"unterminated", &error), nullptr);
    EXPECT_EQ(parseJson("{\"a\" 1}", &error), nullptr);
    EXPECT_EQ(parseJson("nul", &error), nullptr);
    EXPECT_EQ(parseJson("{\"a\": 1,}", &error), nullptr);
    EXPECT_FALSE(error.empty());
}

TEST(JsonParser, RejectsTrailingGarbage)
{
    std::string error;
    EXPECT_EQ(parseJson("{} extra", &error), nullptr);
    EXPECT_NE(error.find("trailing"), std::string::npos) << error;
    // Trailing whitespace is fine.
    EXPECT_NE(parseJson("{}  \n"), nullptr);
}

TEST(JsonParser, EnforcesDepthLimit)
{
    // 64 levels parse; 80 must be rejected, not overflow the stack.
    std::string deep_ok(40, '[');
    deep_ok += std::string(40, ']');
    EXPECT_NE(parseJson(deep_ok), nullptr);

    std::string too_deep(80, '[');
    too_deep += std::string(80, ']');
    std::string error;
    EXPECT_EQ(parseJson(too_deep, &error), nullptr);
    EXPECT_FALSE(error.empty());
}

TEST(JsonParser, ReadsBackEveryEscapedAsciiByte)
{
    // The writer and the reader must agree on every byte a report or
    // trace can carry: each one between letters, then all at once.
    std::string all;
    for (int b = 0x01; b <= 0x7f; ++b) {
        const std::string s{'a', static_cast<char>(b), 'z'};
        const auto root = parseJson('"' + jsonEscape(s) + '"');
        ASSERT_NE(root, nullptr) << "byte " << b;
        EXPECT_EQ(root->text, s) << "byte " << b;
        all += s[1];
    }
    const auto root = parseJson("{\"" + jsonEscape(all) + "\": \"" +
                                jsonEscape(all) + "\"}");
    ASSERT_NE(root, nullptr);
    ASSERT_EQ(root->object.size(), 1u);
    EXPECT_EQ(root->object[0].first, all);
    EXPECT_EQ(root->object[0].second.text, all);
}

TEST(JsonParser, ErrorsCarryOffsets)
{
    std::string error;
    EXPECT_EQ(parseJson("{\"a\": !}", &error), nullptr);
    // The diagnostic must point at the document, not just say "bad".
    EXPECT_NE(error.find("offset"), std::string::npos) << error;
}

} // namespace
} // namespace act::telemetry
