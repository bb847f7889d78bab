#include "util/parse_number.hpp"

#include <cctype>
#include <cstdlib>

namespace mrp {

std::optional<std::uint64_t>
parseU64(std::string_view s)
{
    if (s.empty())
        return std::nullopt;
    constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t v = 0;
    for (const char c : s) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const auto d = static_cast<std::uint64_t>(c - '0');
        if (v > (kMax - d) / 10)
            return std::nullopt;
        v = v * 10 + d;
    }
    return v;
}

std::optional<std::int64_t>
parseI64(std::string_view s)
{
    const bool negative = !s.empty() && s.front() == '-';
    const auto mag = parseU64(negative ? s.substr(1) : s);
    constexpr auto kMax = static_cast<std::uint64_t>(
        std::numeric_limits<std::int64_t>::max());
    if (!mag || *mag > kMax + (negative ? 1 : 0))
        return std::nullopt;
    // Unsigned negation then a modular conversion: exact for 2^63.
    return static_cast<std::int64_t>(negative ? 0 - *mag : *mag);
}

std::optional<double>
parseDouble(std::string_view s)
{
    // strtod would skip leading whitespace; a flag value must not.
    if (s.empty() || std::isspace(static_cast<unsigned char>(s.front())))
        return std::nullopt;
    const std::string tok(s);
    char* rest = nullptr;
    const double v = std::strtod(tok.c_str(), &rest);
    if (rest != tok.c_str() + tok.size())
        return std::nullopt;
    return v;
}

double
flagDouble(std::string_view flag, std::string_view text)
{
    const auto v = parseDouble(text);
    if (!v)
        fatal(ErrorCode::Config,
              std::string(flag) + " expects a number, got '" +
                  std::string(text) + "'");
    return *v;
}

} // namespace mrp
