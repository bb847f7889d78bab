/**
 * @file
 * The JSON reader — the read-side counterpart of json_writer.hpp and
 * the one JSON parser in the tree. Every document we read goes
 * through it: checkpoint-journal lines and RESULT payloads, JOB
 * requests, trace specs, OBS payloads, telemetry and profile
 * documents, BENCH_*.json artifacts.
 *
 * It parses strict JSON into a Value tree. Every number keeps its
 * double value; an integer literal (decimal digits with an optional
 * leading '-') that fits in 64 bits also keeps its exact value, read
 * once by the strict parser of util/parse_number.hpp. The typed
 * integer accessors return only that exact value: a fraction, an
 * exponent form, a negative value for an unsigned type or anything out
 * of the type's range is FatalError(CorruptInput), never a rounded or
 * wrapped cast. Nesting is bounded (kMaxDepth), so hostile input
 * cannot exhaust the stack.
 */

#ifndef MRP_UTIL_JSON_READER_HPP
#define MRP_UTIL_JSON_READER_HPP

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace mrp::json {

/** Deepest array/object nesting a document may have. Our deepest
 * documents (nested trace specs, profile phase trees inside an OBS
 * payload) stay far below it. */
inline constexpr std::size_t kMaxDepth = 512;

class Value
{
  public:
    enum class Type { Null, Bool, Number, String, Array, Object };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    /** Exact value of an integer literal that fits in 64 bits: the
     * magnitude, with negative set for values below zero. */
    bool integral = false;
    bool negative = false;
    std::uint64_t magnitude = 0;
    std::string string;
    std::vector<Value> array;
    /** Members in document order (duplicate keys: first wins in get()). */
    std::vector<std::pair<std::string, Value>> members;

    bool isNull() const { return type == Type::Null; }
    bool isBool() const { return type == Type::Bool; }
    bool isNumber() const { return type == Type::Number; }
    bool isString() const { return type == Type::String; }
    bool isArray() const { return type == Type::Array; }
    bool isObject() const { return type == Type::Object; }

    /** Object member by key, or null pointer. */
    const Value* get(std::string_view key) const;

    /** Member that must exist and have the given type; throws
     * FatalError(CorruptInput) otherwise. @p what names the document
     * for the error message. */
    const Value& require(std::string_view key, Type type,
                         const std::string& what) const;

    /**
     * The exact integer value as @p Int. Throws FatalError
     * (CorruptInput), naming @p what (and member @p key, if given),
     * unless this is an integer literal within Int's range.
     */
    template <typename Int>
    Int
    asInteger(const std::string& what = "JSON value",
              std::string_view key = {}) const
    {
        static_assert(std::is_integral_v<Int> &&
                      !std::is_same_v<Int, bool>);
        using Lim = std::numeric_limits<Int>;
        checkInteger(static_cast<std::uint64_t>(Lim::max()),
                     std::is_signed_v<Int>
                         ? static_cast<std::uint64_t>(Lim::max()) + 1
                         : 0,
                     what, key);
        // In range (checked above), so the conversion is exact.
        return static_cast<Int>(negative ? 0 - magnitude : magnitude);
    }

    /** The number's double value; FatalError(CorruptInput) naming
     * @p what if this is not a number. */
    double asReal(const std::string& what = "JSON value") const;

    std::uint64_t asU64() const { return asInteger<std::uint64_t>(); }
    std::int64_t asI64() const { return asInteger<std::int64_t>(); }
    int asInt() const { return asInteger<int>(); }

    /** Typed required members: require(key, <type>, what) and the
     * value's payload. integer<Int> is exact, as asInteger. */
    template <typename Int = std::uint64_t>
    Int
    integer(std::string_view key, const std::string& what) const
    {
        return require(key, Type::Number, what).asInteger<Int>(what, key);
    }
    double real(std::string_view key, const std::string& what) const;
    bool flag(std::string_view key, const std::string& what) const;
    const std::string& str(std::string_view key,
                           const std::string& what) const;

  private:
    /** Throws unless an integer in [-max_negative, max]. */
    void checkInteger(std::uint64_t max, std::uint64_t max_negative,
                      const std::string& what,
                      std::string_view key) const;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed,
 * trailing garbage not). Throws FatalError(ErrorCode::CorruptInput)
 * with @p what and a byte offset on malformed input, including
 * nesting deeper than kMaxDepth.
 */
Value parseJson(std::string_view text, const std::string& what);

/** As parseJson but returns false instead of throwing. */
bool tryParseJson(std::string_view text, Value* out);

} // namespace mrp::json

#endif // MRP_UTIL_JSON_READER_HPP
