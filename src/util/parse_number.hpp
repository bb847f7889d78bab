/**
 * @file
 * Strict decimal number parsing: the one integer parser behind the
 * JSON reader, the queue line protocol and the command-line flags.
 *
 * Every function consumes the whole string. Integers are plain
 * decimal digits (signed ones with an optional leading '-'); a sign
 * where none is allowed, whitespace, a fraction, trailing bytes or a
 * value outside the target type is a failure, never a wrap or a
 * silent zero.
 */

#ifndef MRP_UTIL_PARSE_NUMBER_HPP
#define MRP_UTIL_PARSE_NUMBER_HPP

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "util/logging.hpp"

namespace mrp {

/** Digits only, value <= 2^64-1; nullopt otherwise. */
std::optional<std::uint64_t> parseU64(std::string_view s);

/** Optional leading '-', then digits, value in int64 range. */
std::optional<std::int64_t> parseI64(std::string_view s);

/** Integer of type @p Int: parseU64 / parseI64 plus a range check
 * against Int; nullopt if the text does not name an Int exactly. */
template <typename Int>
std::optional<Int>
parseInteger(std::string_view s)
{
    static_assert(std::is_integral_v<Int> && !std::is_same_v<Int, bool>);
    using Lim = std::numeric_limits<Int>;
    if constexpr (std::is_unsigned_v<Int>) {
        const auto v = parseU64(s);
        if (!v || *v > Lim::max())
            return std::nullopt;
        return static_cast<Int>(*v);
    } else {
        const auto v = parseI64(s);
        if (!v || *v < Lim::min() || *v > Lim::max())
            return std::nullopt;
        return static_cast<Int>(*v);
    }
}

/** A whole-string floating-point value (strtod syntax, so "nan" and
 * "inf" parse; range checks are the caller's); nullopt on an empty
 * string, leading whitespace or trailing bytes. */
std::optional<double> parseDouble(std::string_view s);

/** Command-line flag value as @p Int; FatalError(Config) naming
 * @p flag when the text is not an Int. */
template <typename Int>
Int
flagInteger(std::string_view flag, std::string_view text)
{
    const auto v = parseInteger<Int>(text);
    if (!v)
        fatal(ErrorCode::Config,
              std::string(flag) + " expects an integer in [" +
                  std::to_string(std::numeric_limits<Int>::min()) +
                  ", " +
                  std::to_string(std::numeric_limits<Int>::max()) +
                  "], got '" + std::string(text) + "'");
    return *v;
}

/** A KiB-valued command-line flag as a byte count of type @p Int;
 * FatalError(Config) naming @p flag when the text is not an Int or
 * the size in bytes does not fit one. */
template <typename Int>
Int
flagKib(std::string_view flag, std::string_view text)
{
    const Int kib = flagInteger<Int>(flag, text);
    if (kib > std::numeric_limits<Int>::max() / 1024)
        fatal(ErrorCode::Config,
              std::string(flag) + " " + std::string(text) +
                  " KiB overflows a " +
                  std::to_string(sizeof(Int) * 8) + "-bit byte count");
    return kib * 1024;
}

/** Command-line flag value as a double; FatalError(Config) naming
 * @p flag when the text is not a number. */
double flagDouble(std::string_view flag, std::string_view text);

} // namespace mrp

#endif // MRP_UTIL_PARSE_NUMBER_HPP
