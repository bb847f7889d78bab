#include "queue/wire.hpp"

#include <string_view>
#include <vector>

#include "util/json_fields.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"
#include "util/parse_number.hpp"

namespace mrp::queue {

namespace {

using json::Value;

// --- config structs <-> JSON ----------------------------------------
// Each table lists a struct's members in wire order; the writer and
// the reader below both walk it (util/json_fields.hpp).

using json::Field;

constexpr std::tuple kPredictorFields{
    Field{"sampledSetsPerCore",
          &core::MultiperspectiveConfig::sampledSetsPerCore},
    Field{"samplerAssoc", &core::MultiperspectiveConfig::samplerAssoc},
    Field{"weightBits", &core::MultiperspectiveConfig::weightBits},
    Field{"confidenceClamp",
          &core::MultiperspectiveConfig::confidenceClamp},
    Field{"trainingThreshold",
          &core::MultiperspectiveConfig::trainingThreshold},
};
constexpr std::tuple kThresholdFields{
    Field{"tauBypass", &core::MpppbThresholds::tauBypass},
    Field{"tau", &core::MpppbThresholds::tau},
    Field{"pi", &core::MpppbThresholds::pi},
    Field{"tauNoPromote", &core::MpppbThresholds::tauNoPromote},
};
constexpr std::tuple kMpppbFields{
    Field{"bypassEnabled", &core::MpppbConfig::bypassEnabled},
    Field{"dynamicBypass", &core::MpppbConfig::dynamicBypass},
    Field{"duelingPeriod", &core::MpppbConfig::duelingPeriod},
    Field{"pselBits", &core::MpppbConfig::pselBits},
};
constexpr std::tuple kMdppFields{
    Field{"mdppInsertPos", &policy::MdppConfig::insertPos},
    Field{"mdppPromotePos", &policy::MdppConfig::promotePos},
};
constexpr std::tuple kSrripFields{
    Field{"srripBits", &policy::SrripConfig::bits},
    Field{"srripInsertRrpv", &policy::SrripConfig::insertRrpv},
    Field{"srripHitRrpv", &policy::SrripConfig::hitRrpv},
};
constexpr std::tuple kHierarchyFields{
    Field{"cores", &cache::HierarchyConfig::cores},
    Field{"l1Bytes", &cache::HierarchyConfig::l1Bytes},
    Field{"l1Ways", &cache::HierarchyConfig::l1Ways},
    Field{"l2Bytes", &cache::HierarchyConfig::l2Bytes},
    Field{"l2Ways", &cache::HierarchyConfig::l2Ways},
    Field{"llcBytes", &cache::HierarchyConfig::llcBytes},
    Field{"llcWays", &cache::HierarchyConfig::llcWays},
    Field{"l1Latency", &cache::HierarchyConfig::l1Latency},
    Field{"l2Latency", &cache::HierarchyConfig::l2Latency},
    Field{"llcLatency", &cache::HierarchyConfig::llcLatency},
    Field{"memLatency", &cache::HierarchyConfig::memLatency},
    Field{"prefetchEnabled", &cache::HierarchyConfig::prefetchEnabled},
};
constexpr std::tuple kPrefetcherFields{
    Field{"streams", &prefetch::StreamPrefetcherConfig::streams},
    Field{"degree", &prefetch::StreamPrefetcherConfig::degree},
    Field{"distance", &prefetch::StreamPrefetcherConfig::distance},
    Field{"window", &prefetch::StreamPrefetcherConfig::window},
};
constexpr std::tuple kDriverFields{
    Field{"warmupFraction", &sim::DriverConfig::warmupFraction},
    Field{"warmupInstructions", &sim::DriverConfig::warmupInstructions},
    Field{"seed", &sim::DriverConfig::seed},
};
constexpr std::tuple kTenantFields{
    Field{"ways", &tenant::TenantConfig::ways},
    Field{"sloMpki", &tenant::TenantConfig::sloMpki},
};
constexpr std::tuple kQosFields{
    Field{"enabled", &tenant::QosConfig::enabled},
    Field{"epochInstructions", &tenant::QosConfig::epochInstructions},
    Field{"breachEpochs", &tenant::QosConfig::breachEpochs},
    Field{"calmEpochs", &tenant::QosConfig::calmEpochs},
    Field{"hysteresisFrac", &tenant::QosConfig::hysteresisFrac},
    Field{"minWays", &tenant::QosConfig::minWays},
};

std::string
mpppbJson(const core::MpppbConfig& c)
{
    std::string out = json::firstKey("features") + "[";
    for (std::size_t i = 0; i < c.predictor.features.size(); ++i) {
        if (i)
            out += ", ";
        out += json::str(c.predictor.features[i].toString());
    }
    out += "], ";
    out += json::fieldsJson(c.predictor, kPredictorFields);
    out += ", " + json::key("substrate") +
           json::str(c.substrate == core::Substrate::Mdpp ? "mdpp"
                                                          : "srrip");
    for (const auto& part : {json::fieldsJson(c.thresholds, kThresholdFields),
                             json::fieldsJson(c, kMpppbFields),
                             json::fieldsJson(c.mdpp, kMdppFields),
                             json::fieldsJson(c.srrip, kSrripFields)}) {
        out += ", ";
        out += part;
    }
    out += '}';
    return out;
}

core::MpppbConfig
mpppbFromJson(const Value& v, const std::string& what)
{
    core::MpppbConfig c;
    c.predictor.features.clear();
    for (const auto& f :
         v.require("features", Value::Type::Array, what).array) {
        fatalIf(!f.isString(), ErrorCode::CorruptInput,
                what + ": feature entries must be strings");
        c.predictor.features.push_back(
            core::FeatureSpec::parse(f.string));
    }
    json::readFields(v, what, c.predictor, kPredictorFields);
    const std::string& sub = v.str("substrate", what);
    if (sub == "mdpp")
        c.substrate = core::Substrate::Mdpp;
    else if (sub == "srrip")
        c.substrate = core::Substrate::Srrip;
    else
        fatal(ErrorCode::CorruptInput,
              what + ": unknown substrate \"" + sub + "\"");
    json::readFields(v, what, c.thresholds, kThresholdFields);
    json::readFields(v, what, c, kMpppbFields);
    json::readFields(v, what, c.mdpp, kMdppFields);
    json::readFields(v, what, c.srrip, kSrripFields);
    return c;
}

std::string
driverJson(const sim::DriverConfig& d)
{
    std::string out = json::firstKey("hierarchy") + "{";
    out += json::fieldsJson(d.hierarchy, kHierarchyFields);
    out += ", " + json::key("prefetcher") + "{";
    out += json::fieldsJson(d.hierarchy.prefetcher, kPrefetcherFields);
    out += "}}, ";
    out += json::fieldsJson(d, kDriverFields);
    return out;
}

void
driverFromJson(const Value& v, const std::string& what,
               sim::DriverConfig& d)
{
    const auto& h = v.require("hierarchy", Value::Type::Object, what);
    json::readFields(h, what, d.hierarchy, kHierarchyFields);
    json::readFields(h.require("prefetcher", Value::Type::Object, what),
                     what, d.hierarchy.prefetcher, kPrefetcherFields);
    json::readFields(v, what, d, kDriverFields);
}

std::string
tenancyJson(const tenant::TenancyConfig& t)
{
    std::string out = json::firstKey("tenants") + "[";
    for (std::size_t i = 0; i < t.tenants.size(); ++i) {
        if (i)
            out += ", ";
        out += '{';
        out += json::fieldsJson(t.tenants[i], kTenantFields);
        out += '}';
    }
    out += "], " + json::key("qos") + "{";
    out += json::fieldsJson(t.qos, kQosFields);
    out += "}}";
    return out;
}

tenant::TenancyConfig
tenancyFromJson(const Value& v, const std::string& what)
{
    tenant::TenancyConfig t;
    for (const auto& e :
         v.require("tenants", Value::Type::Array, what).array)
        json::readFields(e, what, t.tenants.emplace_back(),
                         kTenantFields);
    json::readFields(v.require("qos", Value::Type::Object, what), what,
                     t.qos, kQosFields);
    return t;
}

// --- line-protocol helpers ------------------------------------------

/**
 * The space-separated fields of @p line after its @p verb prefix:
 * exactly @p n of them, the last keeping any further spaces (a framed
 * payload). Empty unless the line has that shape.
 */
std::vector<std::string_view>
lineFields(std::string_view line, std::string_view verb, std::size_t n)
{
    if (!line.starts_with(verb))
        return {};
    line.remove_prefix(verb.size());
    std::vector<std::string_view> out;
    while (out.size() + 1 < n) {
        const std::size_t sp = line.find(' ');
        if (sp == std::string_view::npos)
            return {};
        out.push_back(line.substr(0, sp));
        line.remove_prefix(sp + 1);
    }
    out.push_back(line);
    return out;
}

/**
 * "<verb> <id> " plus @p hex_ids hex16 tokens (two for JOB: trace then
 * span; one for RESULT/OBS: span), then the checksum-framed payload.
 */
std::optional<FramedMsg>
parseFramed(const std::string& line, const std::string& verb,
            unsigned hex_ids)
{
    const auto f = lineFields(line, verb + " ", 2 + hex_ids);
    if (f.empty())
        return std::nullopt;
    const auto id = parseU64(f[0]);
    const auto trace = hex_ids == 2 ? obs::parseHex16(f[1])
                                    : std::optional<std::uint64_t>(0);
    const auto span = obs::parseHex16(f[hex_ids]);
    auto body = journal::unframeLine(std::string(f.back()));
    if (!id || !trace || !span || !body)
        return std::nullopt;
    return FramedMsg{*id, *trace, *span, std::move(*body)};
}

std::string
framedLine(const std::string& verb, std::uint64_t job_id,
           const std::string& hex_ids, const std::string& json)
{
    // A payload with a raw newline would silently shear into
    // unparsable line fragments on the pipe; fail the writer instead.
    fatalIf(json.find('\n') != std::string::npos, ErrorCode::Config,
            verb + " payload must be a single line");
    std::string framed = journal::frameLine(json);
    framed.pop_back(); // frameLine appends the journal newline
    return verb + " " + std::to_string(job_id) + " " + hex_ids + " " +
           framed;
}

} // namespace

std::string
requestJson(const runner::RunRequest& request)
{
    fatalIf(static_cast<bool>(request.policy.factory),
            ErrorCode::Config,
            "policy \"" + request.policy.name +
                "\" holds a factory closure and cannot cross a "
                "process boundary; use PolicySpec::mpppb or a "
                "registry name");
    const bool telemetry = std::visit(
        [](const auto& c) { return c.telemetry.enabled; },
        request.config);
    fatalIf(telemetry, ErrorCode::Config,
            "telemetry-enabled runs cannot be queued: RunTelemetry "
            "has no wire form (run them in-process)");

    std::string out = json::firstKey("mode") +
                      json::str(request.isMultiCore() ? "multi"
                                                      : "single");
    out += ", " + json::key("label") + json::str(request.label);
    out += ", " + json::key("policy") + json::firstKey("name") +
           json::str(request.policy.name);
    if (request.policy.mpppbConfig)
        out += ", " + json::key("mpppb") +
               mpppbJson(*request.policy.mpppbConfig);
    out += "}";
    out += ", " + json::key("sources") + "[";
    for (std::size_t i = 0; i < request.sources.size(); ++i) {
        if (i)
            out += ", ";
        out += request.sources[i].toJson();
    }
    out += "]";
    out += ", " + json::key("config");
    if (request.isMultiCore()) {
        const auto& c =
            std::get<sim::MultiCoreConfig>(request.config);
        out += driverJson(c) + ", " + json::key("measureCycles") +
               std::to_string(c.measureCycles);
        // Tenancy travels only when configured, so non-tenant job
        // payloads stay byte-identical to the previous schema.
        if (c.tenancy.configured())
            out += ", " + json::key("tenancy") +
                   tenancyJson(c.tenancy);
        out += "}";
    } else {
        out += driverJson(
                   std::get<sim::SingleCoreConfig>(request.config)) +
               "}";
    }
    out += "}";
    return out;
}

runner::RunRequest
requestFromJson(const json::Value& v, const std::string& what)
{
    fatalIf(!v.isObject(), ErrorCode::CorruptInput,
            what + ": request must be a JSON object");
    runner::RunRequest r;
    const std::string& mode = v.str("mode", what);
    fatalIf(mode != "single" && mode != "multi",
            ErrorCode::CorruptInput,
            what + ": unknown mode \"" + mode + "\"");
    r.label = v.str("label", what);

    const auto& pol = v.require("policy", Value::Type::Object, what);
    const std::string& name = pol.str("name", what);
    if (const auto* m = pol.get("mpppb"))
        r.policy = runner::PolicySpec::mpppb(
            mpppbFromJson(*m, what + " policy"));
    else
        r.policy = runner::PolicySpec::byName(name);
    r.policy.name = name;

    const auto& srcs = v.require("sources", Value::Type::Array, what).array;
    if (mode == "multi")
        fatalIf(srcs.size() < 2, ErrorCode::CorruptInput,
                what + ": multi request needs >= 2 sources, got " +
                    std::to_string(srcs.size()));
    else
        fatalIf(srcs.size() != 1, ErrorCode::CorruptInput,
                what + ": single request needs 1 source, got " +
                    std::to_string(srcs.size()));
    for (const auto& s : srcs)
        r.sources.push_back(trace::TraceSpec::fromJson(s, what));

    const auto& cfg = v.require("config", Value::Type::Object, what);
    if (mode == "multi") {
        sim::MultiCoreConfig c;
        driverFromJson(cfg, what, c);
        c.measureCycles = cfg.integer("measureCycles", what);
        if (const auto* t = cfg.get("tenancy"))
            c.tenancy = tenancyFromJson(*t, what + " tenancy");
        r.config = std::move(c);
    } else {
        sim::SingleCoreConfig c;
        driverFromJson(cfg, what, c);
        r.config = c;
    }
    return r;
}

runner::RunRequest
requestFromJson(const std::string& text, const std::string& what)
{
    return requestFromJson(json::parseJson(text, what), what);
}

std::string
helloLine(std::uint64_t pid)
{
    return "HELLO " + std::to_string(pid) + " " +
           std::to_string(kWireSchemaVersion);
}

std::string
heartbeatLine(std::uint64_t job_id, std::uint64_t span_id,
              std::uint64_t seq)
{
    return "HB " + std::to_string(job_id) + " " +
           obs::hex16(span_id) + " " + std::to_string(seq);
}

std::string
jobLine(std::uint64_t job_id, const obs::SpanContext& ctx,
        const std::string& request_json)
{
    return framedLine("JOB", job_id,
                      obs::hex16(ctx.traceId) + " " +
                          obs::hex16(ctx.spanId),
                      request_json);
}

std::string
resultLine(std::uint64_t job_id, std::uint64_t span_id,
           const std::string& result_json)
{
    return framedLine("RESULT", job_id, obs::hex16(span_id),
                      result_json);
}

std::string
obsLine(std::uint64_t job_id, std::uint64_t span_id,
        const std::string& obs_json)
{
    return framedLine("OBS", job_id, obs::hex16(span_id), obs_json);
}

std::optional<HelloMsg>
parseHello(const std::string& line)
{
    const auto f = lineFields(line, "HELLO ", 2);
    if (f.empty())
        return std::nullopt;
    const auto pid = parseU64(f[0]);
    const auto schema = parseInteger<unsigned>(f[1]);
    if (!pid || !schema)
        return std::nullopt;
    return HelloMsg{*pid, *schema};
}

std::optional<HeartbeatMsg>
parseHeartbeat(const std::string& line)
{
    const auto f = lineFields(line, "HB ", 3);
    if (f.empty())
        return std::nullopt;
    const auto id = parseU64(f[0]);
    const auto span = obs::parseHex16(f[1]);
    const auto seq = parseU64(f[2]);
    if (!id || !span || !seq)
        return std::nullopt;
    return HeartbeatMsg{*id, *span, *seq};
}

std::optional<FramedMsg>
parseJob(const std::string& line)
{
    return parseFramed(line, "JOB", 2);
}

std::optional<FramedMsg>
parseResult(const std::string& line)
{
    return parseFramed(line, "RESULT", 1);
}

std::optional<FramedMsg>
parseObs(const std::string& line)
{
    return parseFramed(line, "OBS", 1);
}

} // namespace mrp::queue
