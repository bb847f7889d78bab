#include "prof/export.hpp"

#include <cstdio>
#include <cstdlib>

#include <sys/utsname.h>
#include <unistd.h>

#include <thread>

#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::prof {

namespace {

std::string
u64(std::uint64_t v)
{
    return std::to_string(v);
}

void
phaseJson(const PhaseStat& p, int indent, std::string* out)
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    const std::string pad2(static_cast<std::size_t>(indent) + 2, ' ');
    *out += "{\n";
    *out += pad2 + json::key("label") + json::str(p.label) + ",\n";
    *out += pad2 + json::key("count") + u64(p.count) + ",\n";
    *out += pad2 + json::key("inclusiveSeconds") +
            json::formatDouble(p.inclusiveSeconds) + ",\n";
    *out += pad2 + json::key("exclusiveSeconds") +
            json::formatDouble(p.exclusiveSeconds) + ",\n";
    *out += pad2 + json::key("children") + "[";
    for (std::size_t i = 0; i < p.children.size(); ++i) {
        *out += i == 0 ? "\n" : ",\n";
        *out += pad2 + "  ";
        phaseJson(p.children[i], indent + 4, out);
    }
    if (!p.children.empty())
        *out += "\n" + pad2;
    *out += "]\n";
    *out += pad + "}";
}

} // namespace

MachineInfo
machineInfo()
{
    MachineInfo m;
    utsname u{};
    if (::uname(&u) == 0) {
        m.os = u.sysname;
        m.release = u.release;
        m.arch = u.machine;
    }
    char host[256] = {0};
    if (::gethostname(host, sizeof(host) - 1) == 0)
        m.hostname = host;
    m.cpus = std::thread::hardware_concurrency();
    return m;
}

std::string
gitSha()
{
    if (const char* env = std::getenv("MRP_GIT_SHA"); env && *env)
        return env;
    std::string sha;
    if (FILE* pipe = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
        char buf[128];
        if (std::fgets(buf, sizeof(buf), pipe))
            sha = buf;
        ::pclose(pipe);
    }
    while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r'))
        sha.pop_back();
    return sha.empty() ? "unknown" : sha;
}

std::string
phaseTreeJson(const PhaseStat& p, int indent)
{
    std::string out;
    phaseJson(p, indent, &out);
    return out;
}

PhaseStat
phaseTreeFromJson(const json::Value& v, const std::string& what)
{
    fatalIf(!v.isObject(), ErrorCode::CorruptInput,
            what + ": phase must be a JSON object");
    PhaseStat p;
    p.label = v.str("label", what);
    p.count = v.integer("count", what);
    p.inclusiveSeconds = v.real("inclusiveSeconds", what);
    p.exclusiveSeconds = v.real("exclusiveSeconds", what);
    for (const auto& c :
         v.require("children", json::Value::Type::Array, what).array)
        p.children.push_back(phaseTreeFromJson(c, what));
    return p;
}

std::string
benchJson(const std::string& name, const std::vector<BenchRun>& runs,
          const MachineInfo& machine, const std::string& sha)
{
    std::string out = "{\n";
    out += "  " + json::key("schema") + json::str("mrp-bench-v1") + ",\n";
    out += "  " + json::key("name") + json::str(name) + ",\n";
    out += "  " + json::key("gitSha") + json::str(sha) + ",\n";
    out += "  " + json::key("machine") + "{\n";
    out += "    " + json::key("os") + json::str(machine.os) + ",\n";
    out += "    " + json::key("release") + json::str(machine.release) +
           ",\n";
    out += "    " + json::key("arch") + json::str(machine.arch) + ",\n";
    out += "    " + json::key("hostname") + json::str(machine.hostname) +
           ",\n";
    out += "    " + json::key("cpus") + std::to_string(machine.cpus) +
           "\n";
    out += "  },\n";
    out += "  " + json::key("runs") + "[";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const BenchRun& r = runs[i];
        const ProfileReport& p = r.profile;
        out += i == 0 ? "\n" : ",\n";
        out += "    {\n";
        out += "      " + json::key("label") + json::str(r.label) + ",\n";
        out += "      " + json::key("benchmark") + json::str(r.benchmark) +
               ",\n";
        out += "      " + json::key("policy") + json::str(r.policy) +
               ",\n";
        out += "      " + json::key("wallSeconds") +
               json::formatDouble(p.wallSeconds) + ",\n";
        out += "      " + json::key("userSeconds") +
               json::formatDouble(p.userSeconds) + ",\n";
        out += "      " + json::key("sysSeconds") +
               json::formatDouble(p.sysSeconds) + ",\n";
        out += "      " + json::key("maxRssKb") +
               std::to_string(p.maxRssKb) + ",\n";
        out += "      " + json::key("instructions") + u64(p.instructions) +
               ",\n";
        out += "      " + json::key("llcAccesses") + u64(p.llcAccesses) +
               ",\n";
        out += "      " + json::key("instsPerSecond") +
               json::formatDouble(p.instsPerSecond) + ",\n";
        out += "      " + json::key("accessesPerSecond") +
               json::formatDouble(p.accessesPerSecond) + ",\n";
        out += "      " + json::key("llcCoverage") +
               json::formatDouble(llcCoverage(p.root)) + ",\n";
        out += "      " + json::key("phases");
        phaseJson(p.root, 6, &out);
        out += "\n    }";
    }
    if (!runs.empty())
        out += "\n  ";
    out += "]\n";
    out += "}\n";
    return out;
}

namespace {

/** Microseconds, formatted as an integer-friendly double. */
std::string
micros(double seconds)
{
    return json::formatDouble(seconds * 1e6);
}

void
appendPhaseEvents(const PhaseStat& p, double start_seconds, int pid,
                  std::vector<std::string>* events)
{
    events->push_back(
        "{\"name\": " + json::str(p.label) +
        ", \"ph\": \"X\", \"pid\": " + std::to_string(pid) +
        ", \"tid\": 0, \"ts\": " + micros(start_seconds) +
        ", \"dur\": " + micros(p.inclusiveSeconds) +
        ", \"args\": {\"count\": " + std::to_string(p.count) + "}}");
    double cursor = start_seconds;
    for (const PhaseStat& c : p.children) {
        appendPhaseEvents(c, cursor, pid, events);
        cursor += c.inclusiveSeconds;
    }
}

} // namespace

void
appendTraceEvents(const BenchRun& run, int pid,
                  std::vector<std::string>* events)
{
    events->push_back(
        "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
        std::to_string(pid) + ", \"tid\": 0, \"args\": {\"name\": " +
        json::str("prof:" + run.benchmark + "/" + run.policy) + "}}");
    appendPhaseEvents(run.profile.root, 0.0, pid, events);
}

} // namespace mrp::prof
