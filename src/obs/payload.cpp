#include "obs/payload.hpp"

#include "prof/export.hpp"
#include "telemetry/export.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::obs {

namespace {

/** Collapse the pretty writers' newline+indent whitespace so the
 * embedded documents fit one wire line. Only inter-token layout is
 * touched: in-string newlines are always escaped by the writers. */
std::string
singleLine(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (text[i] == '\n') {
            while (i + 1 < text.size() && text[i + 1] == ' ')
                ++i;
            continue;
        }
        out += text[i];
    }
    return out;
}

} // namespace

std::string
workerObsJson(const WorkerRunObs& o)
{
    std::string out = json::firstKey("label") + json::str(o.label);
    out += ", " + json::key("wallSeconds") +
           json::formatDouble(o.wallSeconds);
    out += ", " + json::key("accesses") + std::to_string(o.accesses);
    out += ", " + json::key("truncated") +
           (o.truncated ? "true" : "false");
    if (o.metrics)
        out += ", " + json::key("metrics") +
               singleLine(telemetry::snapshotJson(*o.metrics, ""));
    if (o.phases)
        out += ", " + json::key("phases") +
               singleLine(prof::phaseTreeJson(*o.phases, 0));
    out += "}";
    return out;
}

WorkerRunObs
workerObsFromJson(const json::Value& v, const std::string& what)
{
    fatalIf(!v.isObject(), ErrorCode::CorruptInput,
            what + ": obs payload must be a JSON object");
    WorkerRunObs o;
    o.label =
        v.require("label", json::Value::Type::String, what).string;
    o.wallSeconds =
        v.require("wallSeconds", json::Value::Type::Number, what)
            .number;
    o.accesses =
        v.require("accesses", json::Value::Type::Number, what)
            .asU64();
    o.truncated =
        v.require("truncated", json::Value::Type::Bool, what).boolean;
    if (const auto* m = v.get("metrics"))
        o.metrics = telemetry::snapshotFromJson(*m, what);
    if (const auto* p = v.get("phases"))
        o.phases = prof::phaseTreeFromJson(*p, what);
    return o;
}

WorkerRunObs
workerObsFromJson(const std::string& text, const std::string& what)
{
    return workerObsFromJson(json::parseJson(text, what), what);
}

} // namespace mrp::obs
