/**
 * @file
 * The one JSON writer: every report, the txprof profile and the
 * Perfetto trace go through it.
 *
 * Streaming: values are written as they arrive and no document tree
 * is built. The writer tracks nesting for commas and indentation and
 * has one layout rule: every member of a non-empty object or array
 * goes on its own line, indented two spaces per level; an empty one
 * prints as {} or []. Strings escape `"`, `\` and control characters
 * (as \u00XX); bytes at or above 0x80 pass through. Integers print
 * exactly (up to UINT64_MAX), doubles in their shortest round-trip
 * form, and NaN and infinities as null, which JSON has in their place.
 * There are no settings.
 *
 *   JsonWriter json(out);
 *   json.beginObject().field("name", "x").key("list").beginArray();
 *   json.value(1).value(2.5).end().end();
 */

#ifndef HTMSIM_PROF_JSON_HH
#define HTMSIM_PROF_JSON_HH

#include <charconv>
#include <concepts>
#include <ostream>
#include <string_view>
#include <vector>

namespace htmsim::prof
{

class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream& out) : out_(out) {}

    JsonWriter& beginObject() { return open('{'); }
    JsonWriter& beginArray() { return open('['); }
    /** Close the innermost open object or array. */
    JsonWriter& end();

    /** Name the next value; only inside an object. */
    JsonWriter& key(std::string_view name);

    JsonWriter& value(std::string_view text);
    JsonWriter& value(const char* text)
    {
        return value(std::string_view(text));
    }
    JsonWriter& value(bool flag) { return token(flag ? "true" : "false"); }
    JsonWriter& value(double number);

    template <std::integral T>
    JsonWriter&
    value(T number)
    {
        char text[24];
        const auto end = std::to_chars(text, text + sizeof(text), number);
        return token(std::string_view(text, end.ptr - text));
    }

    /** key(@p name), then value(@p v). */
    template <typename T>
    JsonWriter&
    field(std::string_view name, const T& v)
    {
        return key(name).value(v);
    }

  private:
    struct Frame
    {
        bool object;
        bool empty;
    };

    JsonWriter& open(char bracket);
    /** Write a number or literal as the next value. */
    JsonWriter& token(std::string_view text);
    /** Start the next value: on a new line, unless it follows a key. */
    void place();
    /** A new line at the current depth, after a comma if the
     *  innermost container already has a member. */
    void newMember();
    void string(std::string_view text);

    std::ostream& out_;
    std::vector<Frame> frames_;
    /** A key was written and its value has not been. */
    bool keyed_ = false;
};

} // namespace htmsim::prof

#endif // HTMSIM_PROF_JSON_HH
