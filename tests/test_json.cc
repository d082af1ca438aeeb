/**
 * @file
 * The JSON writer (prof/json.hh): escaping, layout, and numbers that
 * survive a round trip, checked against exact expected output.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <string>

#include "prof/json.hh"

namespace
{

using htmsim::prof::JsonWriter;

/** The text @p fill writes through a fresh writer. */
template <typename Fill>
std::string
written(Fill&& fill)
{
    std::ostringstream out;
    {
        JsonWriter json(out);
        fill(json);
    }
    return out.str();
}

TEST(JsonWriter, EscapesQuotesBackslashesAndControlCharacters)
{
    EXPECT_EQ(written([](JsonWriter& json) {
                  json.value("say \"hi\"\\now\n\x01");
              }),
              R"("say \"hi\"\\now\u000a\u0001")");
    // UTF-8 (bytes >= 0x80) passes through untouched.
    EXPECT_EQ(written([](JsonWriter& json) { json.value("caf\xc3\xa9"); }),
              "\"caf\xc3\xa9\"");
    // Keys go through the same escaping.
    EXPECT_EQ(written([](JsonWriter& json) {
                  json.beginObject().field("a\"b", 1).end();
              }),
              "{\n  \"a\\\"b\": 1\n}\n");
}

TEST(JsonWriter, LaysOutEmptyAndNestedContainers)
{
    EXPECT_EQ(written([](JsonWriter& json) { json.beginObject().end(); }),
              "{}\n");
    EXPECT_EQ(written([](JsonWriter& json) { json.beginArray().end(); }),
              "[]\n");
    EXPECT_EQ(written([](JsonWriter& json) {
                  json.beginObject()
                      .field("a", 1)
                      .key("b")
                      .beginArray()
                      .value(true)
                      .beginObject()
                      .end()
                      .beginArray()
                      .end()
                      .end()
                      .key("c")
                      .beginObject()
                      .field("d", "e")
                      .field("f", false)
                      .end()
                      .end();
              }),
              "{\n"
              "  \"a\": 1,\n"
              "  \"b\": [\n"
              "    true,\n"
              "    {},\n"
              "    []\n"
              "  ],\n"
              "  \"c\": {\n"
              "    \"d\": \"e\",\n"
              "    \"f\": false\n"
              "  }\n"
              "}\n");
}

TEST(JsonWriter, PrintsIntegersExactly)
{
    EXPECT_EQ(written([](JsonWriter& json) {
                  json.value(std::numeric_limits<std::uint64_t>::max());
              }),
              "18446744073709551615");
    EXPECT_EQ(written([](JsonWriter& json) {
                  json.value(std::numeric_limits<std::int64_t>::min());
              }),
              "-9223372036854775808");
}

TEST(JsonWriter, PrintsDoublesThatRoundTrip)
{
    const double sum = 0.1 + 0.2;
    const std::string text =
        written([sum](JsonWriter& json) { json.value(sum); });
    EXPECT_EQ(text, "0.30000000000000004");
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), sum);
    EXPECT_EQ(written([](JsonWriter& json) { json.value(2.5); }), "2.5");
}

TEST(JsonWriter, WritesNonFiniteDoublesAsNull)
{
    EXPECT_EQ(written([](JsonWriter& json) {
                  json.beginArray()
                      .value(std::nan(""))
                      .value(std::numeric_limits<double>::infinity())
                      .value(-std::numeric_limits<double>::infinity())
                      .end();
              }),
              "[\n  null,\n  null,\n  null\n]\n");
}

} // namespace
