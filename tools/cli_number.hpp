/**
 * @file
 * The one numeric-argument parser of the command-line tools.
 *
 * A value is plain decimal digits that fit the destination type: empty
 * input, a sign ("-1" would otherwise wrap to 2^64 - 1), a base prefix,
 * whitespace, trailing garbage, overflow and values wider than the
 * destination (e.g. 4294967297 for a 32-bit flag) are all rejected, so
 * a malformed flag is a usage error instead of a silently different run.
 */

#pragma once

#include <charconv>
#include <cstdio>
#include <cstring>
#include <type_traits>

namespace smappic::tools
{

/** Parses @p s into @p out; on failure reports the value on stderr,
 *  leaves @p out untouched and returns false. */
template <typename T>
bool
parseNumber(const char *s, T &out)
{
    static_assert(std::is_unsigned_v<T>, "flags take unsigned values");
    const char *end = s + std::strlen(s);
    T value{};
    auto [stop, ec] = std::from_chars(s, end, value);
    if (ec != std::errc{} || stop != end) {
        std::fprintf(stderr, "bad numeric value '%s'\n", s);
        return false;
    }
    out = value;
    return true;
}

} // namespace smappic::tools
