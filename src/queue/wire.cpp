#include "queue/wire.hpp"

#include <cstdlib>

#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::queue {

namespace {

using json::Value;

// --- require helpers over the generic JSON tree ---------------------

std::uint64_t
reqU64(const Value& v, std::string_view key, const std::string& what)
{
    return v.require(key, Value::Type::Number, what).asU64();
}

int
reqInt(const Value& v, std::string_view key, const std::string& what)
{
    return static_cast<int>(
        v.require(key, Value::Type::Number, what).number);
}

unsigned
reqUnsigned(const Value& v, std::string_view key,
            const std::string& what)
{
    return static_cast<unsigned>(reqU64(v, key, what));
}

double
reqDouble(const Value& v, std::string_view key,
          const std::string& what)
{
    return v.require(key, Value::Type::Number, what).number;
}

bool
reqBool(const Value& v, std::string_view key, const std::string& what)
{
    return v.require(key, Value::Type::Bool, what).boolean;
}

const std::string&
reqStr(const Value& v, std::string_view key, const std::string& what)
{
    return v.require(key, Value::Type::String, what).string;
}

const Value&
reqObj(const Value& v, std::string_view key, const std::string& what)
{
    return v.require(key, Value::Type::Object, what);
}

const Value&
reqArr(const Value& v, std::string_view key, const std::string& what)
{
    return v.require(key, Value::Type::Array, what);
}

// --- MpppbConfig <-> JSON -------------------------------------------

std::string
mpppbJson(const core::MpppbConfig& c)
{
    std::string out = json::firstKey("features") + "[";
    for (std::size_t i = 0; i < c.predictor.features.size(); ++i) {
        if (i)
            out += ", ";
        out += json::str(c.predictor.features[i].toString());
    }
    out += "], " + json::key("sampledSetsPerCore") +
           std::to_string(c.predictor.sampledSetsPerCore);
    out += ", " + json::key("samplerAssoc") +
           std::to_string(c.predictor.samplerAssoc);
    out += ", " + json::key("weightBits") +
           std::to_string(c.predictor.weightBits);
    out += ", " + json::key("confidenceClamp") +
           std::to_string(c.predictor.confidenceClamp);
    out += ", " + json::key("trainingThreshold") +
           std::to_string(c.predictor.trainingThreshold);
    out += ", " + json::key("substrate") +
           json::str(c.substrate == core::Substrate::Mdpp ? "mdpp"
                                                          : "srrip");
    out += ", " + json::key("tauBypass") +
           std::to_string(c.thresholds.tauBypass);
    out += ", " + json::key("tau") + "[" +
           std::to_string(c.thresholds.tau[0]) + ", " +
           std::to_string(c.thresholds.tau[1]) + ", " +
           std::to_string(c.thresholds.tau[2]) + "]";
    out += ", " + json::key("pi") + "[" +
           std::to_string(c.thresholds.pi[0]) + ", " +
           std::to_string(c.thresholds.pi[1]) + ", " +
           std::to_string(c.thresholds.pi[2]) + "]";
    out += ", " + json::key("tauNoPromote") +
           std::to_string(c.thresholds.tauNoPromote);
    out += ", " + json::key("bypassEnabled") +
           (c.bypassEnabled ? "true" : "false");
    out += ", " + json::key("dynamicBypass") +
           (c.dynamicBypass ? "true" : "false");
    out += ", " + json::key("duelingPeriod") +
           std::to_string(c.duelingPeriod);
    out += ", " + json::key("pselBits") + std::to_string(c.pselBits);
    out += ", " + json::key("mdppInsertPos") +
           std::to_string(c.mdpp.insertPos);
    out += ", " + json::key("mdppPromotePos") +
           std::to_string(c.mdpp.promotePos);
    out += ", " + json::key("srripBits") +
           std::to_string(c.srrip.bits);
    out += ", " + json::key("srripInsertRrpv") +
           std::to_string(c.srrip.insertRrpv);
    out += ", " + json::key("srripHitRrpv") +
           std::to_string(c.srrip.hitRrpv) + "}";
    return out;
}

core::MpppbConfig
mpppbFromJson(const Value& v, const std::string& what)
{
    core::MpppbConfig c;
    c.predictor.features.clear();
    for (const auto& f : reqArr(v, "features", what).array) {
        fatalIf(!f.isString(), ErrorCode::CorruptInput,
                what + ": feature entries must be strings");
        c.predictor.features.push_back(
            core::FeatureSpec::parse(f.string));
    }
    c.predictor.sampledSetsPerCore = static_cast<std::uint32_t>(
        reqU64(v, "sampledSetsPerCore", what));
    c.predictor.samplerAssoc =
        static_cast<std::uint32_t>(reqU64(v, "samplerAssoc", what));
    c.predictor.weightBits = reqUnsigned(v, "weightBits", what);
    c.predictor.confidenceClamp = reqInt(v, "confidenceClamp", what);
    c.predictor.trainingThreshold =
        reqInt(v, "trainingThreshold", what);
    const std::string& sub = reqStr(v, "substrate", what);
    if (sub == "mdpp")
        c.substrate = core::Substrate::Mdpp;
    else if (sub == "srrip")
        c.substrate = core::Substrate::Srrip;
    else
        fatal(ErrorCode::CorruptInput,
              what + ": unknown substrate \"" + sub + "\"");
    c.thresholds.tauBypass = reqInt(v, "tauBypass", what);
    const auto& tau = reqArr(v, "tau", what).array;
    const auto& pi = reqArr(v, "pi", what).array;
    fatalIf(tau.size() != 3 || pi.size() != 3,
            ErrorCode::CorruptInput,
            what + ": tau and pi must each have 3 entries");
    for (std::size_t i = 0; i < 3; ++i) {
        c.thresholds.tau[i] = static_cast<int>(tau[i].number);
        c.thresholds.pi[i] =
            static_cast<std::uint32_t>(pi[i].number);
    }
    c.thresholds.tauNoPromote = reqInt(v, "tauNoPromote", what);
    c.bypassEnabled = reqBool(v, "bypassEnabled", what);
    c.dynamicBypass = reqBool(v, "dynamicBypass", what);
    c.duelingPeriod = reqUnsigned(v, "duelingPeriod", what);
    c.pselBits = reqUnsigned(v, "pselBits", what);
    c.mdpp.insertPos =
        static_cast<std::uint32_t>(reqU64(v, "mdppInsertPos", what));
    c.mdpp.promotePos =
        static_cast<std::uint32_t>(reqU64(v, "mdppPromotePos", what));
    c.srrip.bits = reqUnsigned(v, "srripBits", what);
    c.srrip.insertRrpv = reqUnsigned(v, "srripInsertRrpv", what);
    c.srrip.hitRrpv = reqUnsigned(v, "srripHitRrpv", what);
    return c;
}

// --- driver config <-> JSON -----------------------------------------

std::string
hierarchyJson(const cache::HierarchyConfig& h)
{
    std::string out =
        json::firstKey("cores") + std::to_string(h.cores);
    out += ", " + json::key("l1Bytes") + std::to_string(h.l1Bytes);
    out += ", " + json::key("l1Ways") + std::to_string(h.l1Ways);
    out += ", " + json::key("l2Bytes") + std::to_string(h.l2Bytes);
    out += ", " + json::key("l2Ways") + std::to_string(h.l2Ways);
    out += ", " + json::key("llcBytes") + std::to_string(h.llcBytes);
    out += ", " + json::key("llcWays") + std::to_string(h.llcWays);
    out +=
        ", " + json::key("l1Latency") + std::to_string(h.l1Latency);
    out +=
        ", " + json::key("l2Latency") + std::to_string(h.l2Latency);
    out += ", " + json::key("llcLatency") +
           std::to_string(h.llcLatency);
    out += ", " + json::key("memLatency") +
           std::to_string(h.memLatency);
    out += ", " + json::key("prefetchEnabled") +
           (h.prefetchEnabled ? "true" : "false");
    out += ", " + json::key("prefetcher") + "{" +
           json::key("streams") +
           std::to_string(h.prefetcher.streams);
    out += ", " + json::key("degree") +
           std::to_string(h.prefetcher.degree);
    out += ", " + json::key("distance") +
           std::to_string(h.prefetcher.distance);
    out += ", " + json::key("window") +
           std::to_string(h.prefetcher.window) + "}}";
    return out;
}

cache::HierarchyConfig
hierarchyFromJson(const Value& v, const std::string& what)
{
    cache::HierarchyConfig h;
    h.cores = reqUnsigned(v, "cores", what);
    h.l1Bytes = reqU64(v, "l1Bytes", what);
    h.l1Ways = static_cast<std::uint32_t>(reqU64(v, "l1Ways", what));
    h.l2Bytes = reqU64(v, "l2Bytes", what);
    h.l2Ways = static_cast<std::uint32_t>(reqU64(v, "l2Ways", what));
    h.llcBytes = reqU64(v, "llcBytes", what);
    h.llcWays =
        static_cast<std::uint32_t>(reqU64(v, "llcWays", what));
    h.l1Latency = reqU64(v, "l1Latency", what);
    h.l2Latency = reqU64(v, "l2Latency", what);
    h.llcLatency = reqU64(v, "llcLatency", what);
    h.memLatency = reqU64(v, "memLatency", what);
    h.prefetchEnabled = reqBool(v, "prefetchEnabled", what);
    const auto& p = reqObj(v, "prefetcher", what);
    h.prefetcher.streams = reqUnsigned(p, "streams", what);
    h.prefetcher.degree = reqUnsigned(p, "degree", what);
    h.prefetcher.distance = reqUnsigned(p, "distance", what);
    h.prefetcher.window = reqUnsigned(p, "window", what);
    return h;
}

std::string
driverJson(const sim::DriverConfig& d)
{
    std::string out =
        json::firstKey("hierarchy") + hierarchyJson(d.hierarchy);
    out += ", " + json::key("warmupFraction") +
           json::formatDouble(d.warmupFraction);
    out += ", " + json::key("warmupInstructions") +
           std::to_string(d.warmupInstructions);
    out += ", " + json::key("seed") + std::to_string(d.seed);
    return out;
}

void
driverFromJson(const Value& v, const std::string& what,
               sim::DriverConfig& d)
{
    d.hierarchy = hierarchyFromJson(reqObj(v, "hierarchy", what), what);
    d.warmupFraction = reqDouble(v, "warmupFraction", what);
    d.warmupInstructions = reqU64(v, "warmupInstructions", what);
    d.seed = reqU64(v, "seed", what);
}

std::string
tenancyJson(const tenant::TenancyConfig& t)
{
    std::string out = json::firstKey("tenants") + "[";
    for (std::size_t i = 0; i < t.tenants.size(); ++i) {
        if (i)
            out += ", ";
        out += json::firstKey("ways") +
               std::to_string(t.tenants[i].ways) + ", " +
               json::key("sloMpki") +
               json::formatDouble(t.tenants[i].sloMpki) + "}";
    }
    out += "], " + json::key("qos") + "{";
    out += json::key("enabled") +
           std::string(t.qos.enabled ? "true" : "false");
    out += ", " + json::key("epochInstructions") +
           std::to_string(t.qos.epochInstructions);
    out += ", " + json::key("breachEpochs") +
           std::to_string(t.qos.breachEpochs);
    out += ", " + json::key("calmEpochs") +
           std::to_string(t.qos.calmEpochs);
    out += ", " + json::key("hysteresisFrac") +
           json::formatDouble(t.qos.hysteresisFrac);
    out += ", " + json::key("minWays") +
           std::to_string(t.qos.minWays);
    out += "}}";
    return out;
}

tenant::TenancyConfig
tenancyFromJson(const Value& v, const std::string& what)
{
    tenant::TenancyConfig t;
    for (const auto& e : reqArr(v, "tenants", what).array) {
        tenant::TenantConfig tc;
        tc.ways = reqUnsigned(e, "ways", what);
        tc.sloMpki = reqDouble(e, "sloMpki", what);
        t.tenants.push_back(tc);
    }
    const auto& q = reqObj(v, "qos", what);
    t.qos.enabled = reqBool(q, "enabled", what);
    t.qos.epochInstructions = reqU64(q, "epochInstructions", what);
    t.qos.breachEpochs = reqUnsigned(q, "breachEpochs", what);
    t.qos.calmEpochs = reqUnsigned(q, "calmEpochs", what);
    t.qos.hysteresisFrac = reqDouble(q, "hysteresisFrac", what);
    t.qos.minWays = reqUnsigned(q, "minWays", what);
    return t;
}

// --- line-protocol helpers ------------------------------------------

/** Full-string unsigned parse; nullopt on anything else. */
std::optional<std::uint64_t>
parseU64Token(const std::string& s)
{
    if (s.empty())
        return std::nullopt;
    char* end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size())
        return std::nullopt;
    return static_cast<std::uint64_t>(v);
}

/**
 * Strip "<verb> <id> " plus @p hex_ids space-separated hex16 tokens
 * (two for JOB: trace then span; one for RESULT/OBS: span) and
 * checksum-verify the rest.
 */
std::optional<FramedMsg>
parseFramed(const std::string& line, const std::string& verb,
            unsigned hex_ids)
{
    const std::string prefix = verb + " ";
    if (line.rfind(prefix, 0) != 0)
        return std::nullopt;
    const std::size_t id_end = line.find(' ', prefix.size());
    if (id_end == std::string::npos)
        return std::nullopt;
    const auto id =
        parseU64Token(line.substr(prefix.size(),
                                  id_end - prefix.size()));
    if (!id)
        return std::nullopt;
    FramedMsg msg;
    msg.jobId = *id;
    std::size_t pos = id_end + 1;
    std::uint64_t ids[2] = {0, 0};
    for (unsigned i = 0; i < hex_ids; ++i) {
        const std::size_t end = line.find(' ', pos);
        if (end == std::string::npos)
            return std::nullopt;
        const auto v = obs::parseHex16(
            std::string_view(line).substr(pos, end - pos));
        if (!v)
            return std::nullopt;
        ids[i] = *v;
        pos = end + 1;
    }
    if (hex_ids == 2) {
        msg.traceId = ids[0];
        msg.spanId = ids[1];
    } else {
        msg.spanId = ids[0];
    }
    auto body = journal::unframeLine(line.substr(pos));
    if (!body)
        return std::nullopt;
    msg.json = std::move(*body);
    return msg;
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
    const std::string& mode = reqStr(v, "mode", what);
    fatalIf(mode != "single" && mode != "multi",
            ErrorCode::CorruptInput,
            what + ": unknown mode \"" + mode + "\"");
    r.label = reqStr(v, "label", what);

    const auto& pol = reqObj(v, "policy", what);
    const std::string& name = reqStr(pol, "name", what);
    if (const auto* m = pol.get("mpppb"))
        r.policy = runner::PolicySpec::mpppb(
            mpppbFromJson(*m, what + " policy"));
    else
        r.policy = runner::PolicySpec::byName(name);
    r.policy.name = name;

    const auto& srcs = reqArr(v, "sources", what).array;
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

    const auto& cfg = reqObj(v, "config", what);
    if (mode == "multi") {
        sim::MultiCoreConfig c;
        driverFromJson(cfg, what, c);
        c.measureCycles = reqU64(cfg, "measureCycles", what);
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
    if (line.rfind("HELLO ", 0) != 0)
        return std::nullopt;
    const std::size_t sep = line.find(' ', 6);
    if (sep == std::string::npos)
        return std::nullopt;
    const auto pid = parseU64Token(line.substr(6, sep - 6));
    const auto schema = parseU64Token(line.substr(sep + 1));
    if (!pid || !schema)
        return std::nullopt;
    return HelloMsg{*pid, static_cast<unsigned>(*schema)};
}

std::optional<HeartbeatMsg>
parseHeartbeat(const std::string& line)
{
    if (line.rfind("HB ", 0) != 0)
        return std::nullopt;
    const std::size_t span_sep = line.find(' ', 3);
    if (span_sep == std::string::npos)
        return std::nullopt;
    const std::size_t seq_sep = line.find(' ', span_sep + 1);
    if (seq_sep == std::string::npos)
        return std::nullopt;
    const auto id = parseU64Token(line.substr(3, span_sep - 3));
    const auto span = obs::parseHex16(
        std::string_view(line).substr(span_sep + 1,
                                      seq_sep - span_sep - 1));
    const auto seq = parseU64Token(line.substr(seq_sep + 1));
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
