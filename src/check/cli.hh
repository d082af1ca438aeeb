/**
 * @file
 * Strict command-line parsing shared by every tool: an unknown flag,
 * a missing value or a malformed or out-of-range number exits 2 with
 * a message naming the flag, so a typo never runs another experiment.
 *
 *   cli::Args args(argc, argv);
 *   while (args.next()) {
 *       if (args.is("-o"))
 *           path = args.value();
 *       else if (args.is("--seeds"))
 *           seeds = args.number(1u, 1000u);
 *       else
 *           args.unknown();
 *   }
 */

#ifndef HTMSIM_CHECK_CLI_HH
#define HTMSIM_CHECK_CLI_HH

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string_view>
#include <type_traits>
#include <utility>

namespace htmsim::cli
{

/** @p text as a number in [@p lo, @p hi], or nothing: the whole token
 *  must parse (integers in any base strtoll accepts). */
template <typename T>
std::optional<T>
parseNumber(const char* text, T lo, T hi)
{
    char* end = nullptr;
    errno = 0;
    bool in_range;
    T value;
    if constexpr (std::is_floating_point_v<T>) {
        value = T(std::strtod(text, &end));
        in_range = value >= lo && value <= hi;
    } else {
        const long long parsed = std::strtoll(text, &end, 0);
        in_range =
            !std::cmp_less(parsed, lo) && !std::cmp_greater(parsed, hi);
        value = T(parsed);
    }
    if (end == text || *end != '\0' || errno != 0 || !in_range)
        return std::nullopt;
    return value;
}

/** Walks a tool's argument vector one flag at a time. */
class Args
{
  public:
    Args(int argc, char** argv) : argc_(argc), argv_(argv) {}

    /** Step to the next argument; false past the last. */
    bool next() { return ++index_ < argc_; }
    /** The current argument. */
    std::string_view flag() const { return argv_[index_]; }
    /** The current argument's index in argv: a flag's, or after
     *  value() or number(), its value's. */
    int index() const { return index_; }
    bool is(std::string_view name) const { return flag() == name; }

    /** The value that follows the current flag. */
    const char*
    value()
    {
        if (index_ + 1 < argc_)
            return argv_[++index_];
        std::fprintf(stderr, "missing value for %s\n", argv_[index_]);
        std::exit(2);
    }

    /** The value that follows the current flag, as a number. */
    template <typename T>
    T
    number(T lo, T hi)
    {
        const char* name = argv_[index_];
        const char* text = value();
        const std::optional<T> parsed = parseNumber(text, lo, hi);
        if (!parsed) {
            std::fprintf(stderr,
                         "%s: expected a number in [%g, %g], got '%s'\n",
                         name, double(lo), double(hi), text);
            std::exit(2);
        }
        return *parsed;
    }

    /** Reject the current argument. */
    [[noreturn]] void
    unknown() const
    {
        std::fprintf(stderr, "unknown flag '%s'\n", argv_[index_]);
        std::exit(2);
    }

    /** Reject the value just read; @p accepted lists the valid ones. */
    [[noreturn]] void
    invalid(const char* accepted) const
    {
        std::fprintf(stderr, "%s: unknown value '%s' (accepted: %s)\n",
                     argv_[index_ - 1], argv_[index_], accepted);
        std::exit(2);
    }

  private:
    int argc_;
    char** argv_;
    int index_ = 0;
};

} // namespace htmsim::cli

#endif // HTMSIM_CHECK_CLI_HH
