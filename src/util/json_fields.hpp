/**
 * @file
 * Table-driven JSON members: one table of (key, pointer-to-member)
 * pairs drives both the writer and the reader of a struct, so the two
 * cannot drift apart.
 *
 *   constexpr std::tuple kFields{json::Field{"seed", &Config::seed}};
 *   out += json::fieldsJson(cfg, kFields);       // "seed": 7
 *   json::readFields(value, what, cfg, kFields);
 *
 * bool, floating point (json::formatDouble), integers (read back
 * exactly, range-checked), std::string, and numeric std::array (fixed
 * length) or std::vector members are supported.
 */

#ifndef MRP_UTIL_JSON_FIELDS_HPP
#define MRP_UTIL_JSON_FIELDS_HPP

#include <string>
#include <tuple>
#include <type_traits>

#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::json {

template <typename Obj, typename T>
struct Field
{
    const char* key;
    T Obj::*member;
};

template <typename Obj, typename T>
Field(const char*, T Obj::*) -> Field<Obj, T>;

/** A JSON number as T: the exact integer, or the double. */
template <typename T>
T
numberAs(const Value& e, const std::string& what)
{
    if constexpr (std::is_floating_point_v<T>)
        return e.asReal(what);
    else
        return e.template asInteger<T>(what);
}

/** Member @p key of @p v into @p out; a missing or mistyped member
 * (or a std::array of the wrong length) is FatalError(CorruptInput). */
template <typename T>
void
readValue(const Value& v, const char* key, const std::string& what,
          T& out)
{
    if constexpr (std::is_same_v<T, bool>) {
        out = v.flag(key, what);
    } else if constexpr (std::is_floating_point_v<T>) {
        out = v.real(key, what);
    } else if constexpr (std::is_same_v<T, std::string>) {
        out = v.str(key, what);
    } else if constexpr (std::is_integral_v<T>) {
        out = v.integer<T>(key, what);
    } else {
        const auto& arr = v.require(key, Value::Type::Array, what).array;
        if constexpr (requires { out.resize(0); })
            out.resize(arr.size());
        else if (arr.size() != out.size())
            fatal(ErrorCode::CorruptInput,
                  what + ": \"" + key + "\" must have " +
                      std::to_string(out.size()) + " entries");
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = numberAs<typename T::value_type>(arr[i],
                                                      what + ": " + key);
    }
}

/** `"key": value` for every field of @p fields, ", "-separated. */
template <typename Obj, typename Fields>
std::string
fieldsJson(const Obj& obj, const Fields& fields)
{
    std::string out;
    std::apply(
        [&](const auto&... f) {
            ((out += out.empty() ? "" : ", ", out += key(f.key),
              out += valueJson(obj.*f.member)),
             ...);
        },
        fields);
    return out;
}

template <typename Obj, typename Fields>
void
readFields(const Value& v, const std::string& what, Obj& obj,
           const Fields& fields)
{
    std::apply(
        [&](const auto&... f) {
            (readValue(v, f.key, what, obj.*f.member), ...);
        },
        fields);
}

} // namespace mrp::json

#endif // MRP_UTIL_JSON_FIELDS_HPP
