/**
 * @file
 * Shared JSON-emission helpers.
 *
 * The runner's report writer and checkpoint journal each grew their
 * own copy of double formatting and string escaping; the telemetry
 * exporters would have been a third. This header is now the single
 * definition. Every emitter that wants byte-stable output (reports,
 * journals, metrics, trace events) must come through here.
 */

#ifndef MRP_UTIL_JSON_WRITER_HPP
#define MRP_UTIL_JSON_WRITER_HPP

#include <cstdio>
#include <string>
#include <type_traits>

namespace mrp::json {

/**
 * Shortest round-trip decimal form of a double ("%.17g" trimmed via
 * re-parse), so serialized values re-parse to the exact same bits —
 * compact yet bit-faithful, and therefore byte-identical whenever the
 * underlying doubles are.
 */
inline std::string
formatDouble(double v)
{
    char buf[64];
    for (int prec = 6; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        double back = 0.0;
        std::sscanf(buf, "%lf", &back);
        if (back == v)
            break;
    }
    return buf;
}

/** JSON string-body escaping (quotes, backslash, control chars). */
inline std::string
escape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** `"key"` with escaping and the trailing `: `, for object members. */
inline std::string
key(const std::string& name)
{
    const std::string body = escape(name);
    std::string out;
    out.reserve(body.size() + 4);
    out += '"';
    out += body;
    out += "\": ";
    return out;
}

/** `{"key": ` — an object's opening brace and its first member key. */
inline std::string
firstKey(const std::string& name)
{
    std::string out = "{";
    out += key(name);
    return out;
}

/** Quoted, escaped string value. */
inline std::string
str(const std::string& value)
{
    const std::string body = escape(value);
    std::string out;
    out.reserve(body.size() + 2);
    out += '"';
    out += body;
    out += '"';
    return out;
}

/** A bool, number (doubles in formatDouble form), string, or array
 * (std::array / std::vector) of those as a JSON value. */
template <typename T>
std::string
valueJson(const T& v)
{
    if constexpr (std::is_same_v<T, bool>) {
        return v ? "true" : "false";
    } else if constexpr (std::is_floating_point_v<T>) {
        return formatDouble(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
        return str(v);
    } else if constexpr (std::is_integral_v<T>) {
        return std::to_string(v);
    } else {
        std::string out = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                out += ", ";
            out += valueJson(v[i]);
        }
        out += ']';
        return out;
    }
}

} // namespace mrp::json

#endif // MRP_UTIL_JSON_WRITER_HPP
