/**
 * @file
 * Serialization of profiles into the canonical BENCH_<name>.json
 * artifact and into Chrome trace_event form.
 *
 * BENCH documents are the unit of benchmark exchange: the bench
 * harness writes them, CI uploads them, and tools/bench_guard diffs a
 * fresh one against a committed baseline. The schema is versioned
 * ("mrp-bench-v1") so the guard can reject documents it does not
 * understand instead of silently comparing apples to oranges.
 */

#ifndef MRP_PROF_EXPORT_HPP
#define MRP_PROF_EXPORT_HPP

#include <functional>
#include <string>
#include <vector>

#include "prof/profiler.hpp"
#include "util/json_reader.hpp"

namespace mrp::prof {

/** Host identity stamped into every BENCH document. */
struct MachineInfo
{
    std::string os;       //!< uname sysname, e.g. "Linux"
    std::string release;  //!< uname release
    std::string arch;     //!< uname machine, e.g. "x86_64"
    std::string hostname;
    unsigned cpus = 0;    //!< hardware_concurrency
};

/** Capture the current host's identity. */
MachineInfo machineInfo();

/**
 * Git SHA of the working tree: $MRP_GIT_SHA if set (CI sets it so
 * artifacts stay attributable without a .git directory), else
 * `git rev-parse HEAD`, else "unknown".
 */
std::string gitSha();

/** One profiled run inside a BENCH document. */
struct BenchRun
{
    std::string label;     //!< unique within the document
    std::string benchmark; //!< trace/workload name
    std::string policy;
    ProfileReport profile;
};

/**
 * Render a complete BENCH_<name>.json document. Deterministic for a
 * given input (machine/sha are inputs, not re-captured), pretty enough
 * to read, stable enough to diff.
 */
std::string benchJson(const std::string& name,
                      const std::vector<BenchRun>& runs,
                      const MachineInfo& machine,
                      const std::string& sha);

/**
 * One phase tree as a JSON object — the same
 * `{label, count, inclusiveSeconds, exclusiveSeconds, children}`
 * shape benchJson embeds under "phases". @p indent is the column the
 * object starts at (children indent four further).
 */
std::string phaseTreeJson(const PhaseStat& p, int indent);

/**
 * Inverse of phaseTreeJson (and of the "phases" object inside a
 * BENCH document). Malformed input — missing keys, wrong types at
 * any depth — throws FatalError(ErrorCode::CorruptInput). The
 * shortest-round-trip double formatter makes
 * phaseTreeJson(phaseTreeFromJson(x)) byte-identical to x.
 */
PhaseStat phaseTreeFromJson(const json::Value& v,
                            const std::string& what);

/**
 * Lay out the phase tree @p p as trace_event complete events
 * (cat "phase", args count and exclusiveSeconds) on thread @p tid of
 * process @p pid. A node spans its inclusive time from @p start_us
 * (microseconds) and its children lie end to end from the node's
 * start, so the flame is an *aggregate* profile drawn as a timeline,
 * not a faithful event order. @p emit receives each event with its
 * ts, parents before children.
 */
void phaseEvents(const PhaseStat& p, double start_us, unsigned pid,
                 unsigned tid,
                 const std::function<void(double, std::string)>& emit);

} // namespace mrp::prof

#endif // MRP_PROF_EXPORT_HPP
