/**
 * @file
 * Chrome trace_event documents ("JSON object format", loadable in
 * Perfetto and chrome://tracing): the one writer behind every timeline
 * the simulator emits — telemetry epochs, profile flames and the fleet
 * collector's merged lease timeline.
 *
 * Each event is one JSON object on its own line. Integer ts/dur values
 * print exactly; doubles print in json::formatDouble's shortest
 * round-trip form, so documents are byte-identical whenever their
 * inputs are. Callers own what only they know (pid/tid assignment,
 * event order, args); this header owns every byte of the format.
 */

#ifndef MRP_UTIL_TRACE_EVENT_HPP
#define MRP_UTIL_TRACE_EVENT_HPP

#include <string>
#include <type_traits>
#include <vector>

#include "util/json_writer.hpp"

namespace mrp::trace_event {

/**
 * A one-line JSON object built member by member: an event, or the
 * args object inside one. Strings (and string literals) are quoted and
 * escaped; other values render as json::valueJson does, so integers
 * print exactly and doubles in shortest round-trip form.
 */
class Object
{
  public:
    template <typename T>
    Object&
    add(const std::string& name, const T& value)
    {
        if constexpr (std::is_convertible_v<const T&, std::string>)
            return raw(name, json::str(value));
        else
            return raw(name, json::valueJson(value));
    }

    /** Member whose value is already JSON text. */
    Object&
    raw(const std::string& name, const std::string& value)
    {
        body_ += body_.empty() ? "{" : ", ";
        body_ += json::key(name);
        body_ += value;
        return *this;
    }

    std::string str() const { return body_.empty() ? "{}" : body_ + '}'; }

  private:
    std::string body_;
};

/** Metadata event ("M"): @p kind is "process_name" or "thread_name",
 * naming process @p pid (thread @p tid) @p name. */
inline std::string
metadata(const std::string& kind, unsigned pid, unsigned tid,
         const std::string& name)
{
    return Object()
        .add("name", kind)
        .add("ph", "M")
        .add("pid", pid)
        .add("tid", tid)
        .raw("args", Object().add("name", name).str())
        .str();
}

/** Complete event ("X") covering [ts, ts + dur). */
template <typename Time>
std::string
complete(const std::string& name, const std::string& cat, unsigned pid,
         unsigned tid, Time ts, Time dur, const Object& args)
{
    return Object()
        .add("name", name)
        .add("cat", cat)
        .add("ph", "X")
        .add("pid", pid)
        .add("tid", tid)
        .add("ts", ts)
        .add("dur", dur)
        .raw("args", args.str())
        .str();
}

/** Thread-scoped instant event ("i") at @p ts. */
template <typename Time>
std::string
instant(const std::string& name, const std::string& cat, unsigned pid,
        unsigned tid, Time ts, const Object& args)
{
    return Object()
        .add("name", name)
        .add("cat", cat)
        .add("ph", "i")
        .add("s", "t")
        .add("pid", pid)
        .add("tid", tid)
        .add("ts", ts)
        .raw("args", args.str())
        .str();
}

/** The whole document: @p events one per line, in the given order. */
inline std::string
document(const std::vector<std::string>& events)
{
    std::string out = "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i)
            out += ",\n";
        out += events[i];
    }
    out += "\n], \"displayTimeUnit\": \"ms\"}\n";
    return out;
}

} // namespace mrp::trace_event

#endif // MRP_UTIL_TRACE_EVENT_HPP
