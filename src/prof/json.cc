#include "json.hh"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <string>

namespace htmsim::prof
{

void
JsonWriter::newMember()
{
    Frame& frame = frames_.back();
    out_ << (frame.empty ? "\n" : ",\n")
         << std::string(2 * frames_.size(), ' ');
    frame.empty = false;
}

void
JsonWriter::place()
{
    if (keyed_) {
        keyed_ = false;
    } else if (!frames_.empty()) {
        assert(!frames_.back().object && "an object member needs a key");
        newMember();
    }
}

JsonWriter&
JsonWriter::token(std::string_view text)
{
    place();
    out_ << text;
    return *this;
}

JsonWriter&
JsonWriter::open(char bracket)
{
    place();
    out_ << bracket;
    frames_.push_back({bracket == '{', true});
    return *this;
}

JsonWriter&
JsonWriter::end()
{
    assert(!frames_.empty() && !keyed_);
    const Frame frame = frames_.back();
    frames_.pop_back();
    if (!frame.empty)
        out_ << '\n' << std::string(2 * frames_.size(), ' ');
    out_ << (frame.object ? '}' : ']');
    if (frames_.empty())
        out_ << '\n';
    return *this;
}

JsonWriter&
JsonWriter::key(std::string_view name)
{
    assert(!frames_.empty() && frames_.back().object && !keyed_);
    newMember();
    string(name);
    out_ << ": ";
    keyed_ = true;
    return *this;
}

JsonWriter&
JsonWriter::value(std::string_view text)
{
    place();
    string(text);
    return *this;
}

JsonWriter&
JsonWriter::value(double number)
{
    if (!std::isfinite(number))
        return token("null");
    char text[32];
    const auto end = std::to_chars(text, text + sizeof(text), number);
    return token(std::string_view(text, end.ptr - text));
}

void
JsonWriter::string(std::string_view text)
{
    out_ << '"';
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out_ << '\\' << c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char escape[8];
            std::snprintf(escape, sizeof(escape), "\\u%04x", unsigned(c));
            out_ << escape;
        } else {
            out_ << c;
        }
    }
    out_ << '"';
}

} // namespace htmsim::prof
