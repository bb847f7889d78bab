#include "runner/report.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>

#include "prof/export.hpp"
#include "runner/checkpoint.hpp"
#include "telemetry/export.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"
#include "util/trace_event.hpp"

namespace mrp::runner {

namespace {

using json::formatDouble;

std::string
escapeCsv(const std::string& s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
appendRunJson(std::string& out, const RunResult& r,
              const ReportOptions& opts)
{
    out += "    {";
    out += resultCoreJson(r);
    // Tenancy outcome: emitted only for tenant-configured runs, so
    // non-tenant reports stay byte-identical to earlier artifacts.
    if (!r.tenants.empty()) {
        out += ", \"tenants\": [";
        for (std::size_t t = 0; t < r.tenants.size(); ++t) {
            const auto& o = r.tenants[t];
            if (t)
                out += ", ";
            out += "{\"ways\": " + std::to_string(o.waysInitial);
            out += ", \"waysFinal\": " + std::to_string(o.waysFinal);
            out += ", \"demandMisses\": " +
                   std::to_string(o.demandMisses);
            out += ", \"instructions\": " +
                   std::to_string(o.instructions);
            out += ", \"mpki\": " + formatDouble(o.mpki);
            if (o.sloMpki > 0.0)
                out += ", \"sloMpki\": " + formatDouble(o.sloMpki);
            out += "}";
        }
        out += "]";
        out += ", \"qosResizes\": " +
               std::to_string(r.qosSchedule.size());
        if (!r.qosSchedule.empty()) {
            out += ", \"qosSchedule\": [";
            for (std::size_t i = 0; i < r.qosSchedule.size(); ++i) {
                const auto& q = r.qosSchedule[i];
                if (i)
                    out += ", ";
                out += "[" + std::to_string(q.epoch) + ", " +
                       std::to_string(q.from) + ", " +
                       std::to_string(q.to) + "]";
            }
            out += "]";
        }
    }
    if (r.telemetry)
        out += ", \"metrics\": " +
               telemetry::metricsJson(*r.telemetry, "    ");
    if (!r.ok()) {
        out += ", \"error\": \"" + json::escape(r.error) + "\"";
        out += std::string(", \"errorCode\": \"") +
               errorCodeName(r.errorCode) + "\"";
    }
    if (opts.timing) {
        out += ", \"wallSeconds\": " + formatDouble(r.wallSeconds);
        out += ", \"instsPerSecond\": " +
               formatDouble(r.instsPerSecond);
        // Host-resource split from the profiler when one was attached
        // (RunnerOptions::profile); absent otherwise so timing-off and
        // profile-off reports stay byte-stable across PRs.
        if (r.profile) {
            out += ", \"userSeconds\": " +
                   formatDouble(r.profile->userSeconds);
            out += ", \"sysSeconds\": " +
                   formatDouble(r.profile->sysSeconds);
            out += ", \"maxRssKb\": " +
                   std::to_string(r.profile->maxRssKb);
            out += ", \"accessesPerSecond\": " +
                   formatDouble(r.profile->accessesPerSecond);
        }
    }
    out += "}";
}

} // namespace

std::string
toJson(const RunSet& set, const ReportOptions& opts)
{
    std::string out = "{\n";
    if (opts.timing) {
        out += "  \"jobs\": " + std::to_string(set.jobs) + ",\n";
        out += "  \"wallSeconds\": " + formatDouble(set.wallSeconds) +
               ",\n";
    }
    out += "  \"runs\": [\n";
    for (std::size_t i = 0; i < set.results.size(); ++i) {
        appendRunJson(out, set.results[i], opts);
        if (i + 1 < set.results.size())
            out += ",";
        out += "\n";
    }
    out += "  ],\n  \"summary\": [\n";
    const auto summaries = set.policySummaries();
    for (std::size_t i = 0; i < summaries.size(); ++i) {
        const auto& s = summaries[i];
        out += "    {\"policy\": \"" + json::escape(s.policy) + "\"";
        out += ", \"runs\": " + std::to_string(s.runs);
        out += ", \"geomeanIpc\": " + formatDouble(s.geomeanIpc);
        out += ", \"meanMpki\": " + formatDouble(s.meanMpki) + "}";
        if (i + 1 < summaries.size())
            out += ",";
        out += "\n";
    }
    out += "  ]\n}\n";
    return out;
}

std::string
toCsv(const RunSet& set, const ReportOptions& opts)
{
    std::string out =
        "index,benchmark,policy,label,mode,ipc,mpki,instructions,"
        "llc_demand_accesses,llc_demand_misses,llc_bypasses,error,"
        "error_code";
    bool any_profile = false;
    bool any_seed = false;
    bool any_tenant = false;
    for (const auto& r : set.results) {
        any_profile = any_profile || r.profile != nullptr;
        any_seed = any_seed || r.seed != 0;
        any_tenant = any_tenant || !r.tenants.empty();
    }
    // The seed column appears only when some run was re-seeded, so
    // default-seeded CSV output is byte-identical to pre-seed output.
    if (any_seed)
        out += ",seed";
    // Tenancy columns follow the same omit-when-absent discipline.
    if (any_tenant)
        out += ",tenant_ways_final,tenant_mpki,qos_resizes";
    if (opts.timing) {
        out += ",wall_seconds,insts_per_second";
        if (any_profile)
            out += ",user_seconds,sys_seconds,accesses_per_second";
    }
    out += "\n";
    for (const auto& r : set.results) {
        out += std::to_string(r.index);
        out += "," + escapeCsv(r.benchmark);
        out += "," + escapeCsv(r.policy);
        out += "," + escapeCsv(r.label);
        out += std::string(",") + (r.multiCore ? "multi" : "single");
        out += "," + formatDouble(r.ipc);
        out += "," + formatDouble(r.mpki);
        out += "," + std::to_string(r.instructions);
        out += "," + std::to_string(r.llcDemandAccesses);
        out += "," + std::to_string(r.llcDemandMisses);
        out += "," + std::to_string(r.llcBypasses);
        out += "," + escapeCsv(r.error);
        out += std::string(",") +
               (r.ok() ? "" : errorCodeName(r.errorCode));
        if (any_seed)
            out += "," + std::to_string(r.seed);
        if (any_tenant) {
            std::string ways, mpki;
            for (std::size_t t = 0; t < r.tenants.size(); ++t) {
                if (t) {
                    ways += ";";
                    mpki += ";";
                }
                ways += std::to_string(r.tenants[t].waysFinal);
                mpki += formatDouble(r.tenants[t].mpki);
            }
            out += "," + ways;
            out += "," + mpki;
            out += "," + (r.tenants.empty()
                              ? std::string()
                              : std::to_string(r.qosSchedule.size()));
        }
        if (opts.timing) {
            out += "," + formatDouble(r.wallSeconds);
            out += "," + formatDouble(r.instsPerSecond);
            if (any_profile) {
                if (r.profile) {
                    out += "," + formatDouble(r.profile->userSeconds);
                    out += "," + formatDouble(r.profile->sysSeconds);
                    out += "," +
                           formatDouble(r.profile->accessesPerSecond);
                } else {
                    out += ",,,";
                }
            }
        }
        out += "\n";
    }
    bool any_telemetry = false;
    for (const auto& r : set.results)
        any_telemetry = any_telemetry || r.telemetry != nullptr;
    if (any_telemetry) {
        out += "\n# metrics\nindex,metric,value\n";
        for (const auto& r : set.results) {
            if (!r.telemetry)
                continue;
            for (const auto& row :
                 telemetry::metricsCsvRows(*r.telemetry))
                out += std::to_string(r.index) + "," + row + "\n";
        }
    }
    return out;
}

std::string
toMetricsJson(const RunSet& set)
{
    std::string out = "{\n  \"runs\": [\n";
    bool first = true;
    for (const auto& r : set.results) {
        if (!r.telemetry)
            continue;
        if (!first)
            out += ",\n";
        first = false;
        out += "    {\"index\": " + std::to_string(r.index);
        out += ", \"benchmark\": \"" + json::escape(r.benchmark) + "\"";
        out += ", \"policy\": \"" + json::escape(r.policy) + "\"";
        out += ", \"label\": \"" + json::escape(r.label) + "\"";
        out += ", \"metrics\": " +
               telemetry::metricsJson(*r.telemetry, "    ") + "}";
    }
    if (!first)
        out += "\n";
    out += "  ]\n}\n";
    return out;
}

std::string
toTraceJson(const RunSet& set)
{
    std::vector<std::string> events;
    for (const auto& r : set.results) {
        if (!r.telemetry)
            continue;
        auto run_events = telemetry::traceEvents(
            *r.telemetry, static_cast<unsigned>(r.index),
            r.benchmark + "/" + r.policy);
        std::move(run_events.begin(), run_events.end(),
                  std::back_inserter(events));
    }
    // Profiled runs contribute their phase tree as a second process
    // family (pid 10000+index) so the host-time flame sits next to the
    // simulated-time telemetry in the same viewer document.
    for (const auto& r : set.results) {
        if (!r.profile)
            continue;
        const auto pid = static_cast<unsigned>(10000 + r.index);
        events.push_back(trace_event::metadata(
            "process_name", pid, 0,
            "prof:" + r.benchmark + "/" + r.policy));
        prof::phaseEvents(r.profile->root, 0.0, pid, 0,
                          [&](double, std::string e) {
                              events.push_back(std::move(e));
                          });
    }
    return trace_event::document(events);
}

void
writeFile(const std::string& path, const std::string& content)
{
    std::ofstream f(path, std::ios::binary);
    fatalIf(!f, "cannot open for writing: " + path);
    f << content;
    f.flush();
    fatalIf(!f, "write failed: " + path);
}

} // namespace mrp::runner
