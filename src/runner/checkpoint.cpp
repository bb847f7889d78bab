#include "runner/checkpoint.hpp"

#include "util/json_fields.hpp"
#include "util/json_reader.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::runner {

namespace {

using json::Field;
using json::Value;

const std::string kWhat = "run result";

// Members every line carries, in line order ("mode" sits between the
// two groups).
constexpr std::tuple kHeadFields{
    Field{"index", &RunResult::index},
    Field{"benchmark", &RunResult::benchmark},
    Field{"policy", &RunResult::policy},
    Field{"label", &RunResult::label},
};
constexpr std::tuple kCountFields{
    Field{"ipc", &RunResult::ipc},
    Field{"mpki", &RunResult::mpki},
    Field{"instructions", &RunResult::instructions},
    Field{"llcDemandAccesses", &RunResult::llcDemandAccesses},
    Field{"llcDemandMisses", &RunResult::llcDemandMisses},
    Field{"llcBypasses", &RunResult::llcBypasses},
};

// Tenancy outcome and QoS schedule, each flattened to parallel
// numeric arrays: column "key" holds one field of every row.
constexpr std::tuple kTenantColumns{
    Field{"tenantWaysInitial", &sim::TenantOutcome::waysInitial},
    Field{"tenantWaysFinal", &sim::TenantOutcome::waysFinal},
    Field{"tenantDemandMisses", &sim::TenantOutcome::demandMisses},
    Field{"tenantInstructions", &sim::TenantOutcome::instructions},
    Field{"tenantMpki", &sim::TenantOutcome::mpki},
    Field{"tenantSloMpki", &sim::TenantOutcome::sloMpki},
};
constexpr std::tuple kQosColumns{
    Field{"qosEpochs", &tenant::QosResize::epoch},
    Field{"qosFrom", &tenant::QosResize::from},
    Field{"qosTo", &tenant::QosResize::to},
};

template <typename Row, typename Columns>
void
appendColumns(std::string& out, const std::vector<Row>& rows,
              const Columns& columns)
{
    const auto append = [&](const auto& c) {
        out += ", " + json::key(c.key) + "[";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            if (i)
                out += ", ";
            out += json::valueJson(rows[i].*c.member);
        }
        out += "]";
    };
    std::apply([&](const auto&... c) { (append(c), ...); }, columns);
}

/** The first column sizes @p rows; every column must match it. */
template <typename Row, typename Columns>
void
readColumns(const Value& v, std::vector<Row>& rows,
            const Columns& columns)
{
    const auto column = [&](const char* key) -> const auto& {
        return v.require(key, Value::Type::Array, kWhat).array;
    };
    rows.resize(column(std::get<0>(columns).key).size());
    const auto read = [&](const auto& c) {
        const auto& arr = column(c.key);
        if (arr.size() != rows.size())
            fatal(ErrorCode::CorruptInput,
                  kWhat + ": \"" + c.key + "\" length mismatch");
        for (std::size_t i = 0; i < rows.size(); ++i) {
            auto& f = rows[i].*c.member;
            f = json::numberAs<std::decay_t<decltype(f)>>(arr[i], kWhat);
        }
    };
    std::apply([&](const auto&... c) { (read(c), ...); }, columns);
}

/** resultFromJson's body; throws FatalError on a schema mismatch. */
RunResult
decodeResult(const Value& v)
{
    fatalIf(!v.isObject(), ErrorCode::CorruptInput,
            kWhat + " must be a JSON object");
    RunResult r;
    json::readFields(v, kWhat, r, kHeadFields);
    const std::string& mode = v.str("mode", kWhat);
    fatalIf(mode != "single" && mode != "multi", ErrorCode::CorruptInput,
            kWhat + ": unknown mode \"" + mode + "\"");
    r.multiCore = mode == "multi";
    json::readFields(v, kWhat, r, kCountFields);
    // The remaining members are written only when they carry data.
    if (v.get("seed"))
        r.seed = v.integer("seed", kWhat);
    if (v.get("coreIpc"))
        json::readValue(v, "coreIpc", kWhat, r.coreIpc);
    if (v.get("tenantWaysInitial"))
        readColumns(v, r.tenants, kTenantColumns);
    if (v.get("qosEpochs"))
        readColumns(v, r.qosSchedule, kQosColumns);
    if (v.get("error"))
        r.error = v.str("error", kWhat);
    if (v.get("errorCode"))
        r.errorCode = errorCodeFromName(v.str("errorCode", kWhat));
    return r;
}

} // namespace

std::string
resultCoreJson(const RunResult& r)
{
    std::string out = json::fieldsJson(r, kHeadFields);
    out += std::string(", \"mode\": ") +
           (r.multiCore ? "\"multi\"" : "\"single\"");
    out += ", ";
    out += json::fieldsJson(r, kCountFields);
    // Seed provenance only when a non-default seed was set, so
    // pre-seed artifacts stay byte-identical.
    if (r.seed != 0)
        out += ", \"seed\": " + std::to_string(r.seed);
    if (r.multiCore)
        out += ", \"coreIpc\": " + json::valueJson(r.coreIpc);
    return out;
}

std::string
resultJson(const RunResult& r)
{
    std::string out = "{";
    out += resultCoreJson(r);
    // Tenancy fields, omitted entirely for non-tenant runs (byte-compat
    // with pre-tenant journals).
    if (!r.tenants.empty()) {
        appendColumns(out, r.tenants, kTenantColumns);
        if (!r.qosSchedule.empty())
            appendColumns(out, r.qosSchedule, kQosColumns);
    }
    if (!r.ok()) {
        out += ", \"error\": \"" + json::escape(r.error) + "\"";
        out += std::string(", \"errorCode\": \"") +
               errorCodeName(r.errorCode) + "\"";
    }
    out += "}";
    return out;
}

std::optional<RunResult>
resultFromJson(const std::string& text)
{
    Value v;
    if (!json::tryParseJson(text, &v))
        return std::nullopt;
    try {
        return decodeResult(v);
    } catch (const FatalError&) {
        return std::nullopt;
    }
}

std::string
journalLine(const RunResult& result)
{
    return journal::frameLine(resultJson(result));
}

std::optional<RunResult>
parseJournalLine(const std::string& line)
{
    const auto json = journal::unframeLine(line);
    if (!json)
        return std::nullopt;
    return resultFromJson(*json);
}

std::vector<RunResult>
loadJournal(const std::string& path)
{
    // A line whose checksum holds but whose schema has drifted is
    // invalid too: dropped as a torn tail if final, CorruptInput
    // otherwise.
    std::vector<RunResult> entries;
    journal::scanContent(journal::readWholeFile(path), path,
                         [&entries](const std::string& json) {
                             auto r = resultFromJson(json);
                             if (r)
                                 entries.push_back(std::move(*r));
                             return r.has_value();
                         });
    return entries;
}

CheckpointJournal::CheckpointJournal(const std::string& path)
    : file_(path, "runner.journal")
{
}

void
CheckpointJournal::append(const RunResult& result)
{
    file_.append(resultJson(result));
}

} // namespace mrp::runner
