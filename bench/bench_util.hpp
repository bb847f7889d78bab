/**
 * @file
 * Shared plumbing for the figure/table reproduction benches: scale
 * knobs from the environment and common run helpers.
 *
 * Every bench accepts MRP_BENCH_INSTS (single-thread trace length),
 * MRP_BENCH_MIXES (number of 4-core mixes), and MRP_BENCH_SETS
 * (feature-search candidates) so the paper-scale experiment can be
 * approached on bigger machines while defaults finish in minutes.
 */

#ifndef MRP_BENCH_BENCH_UTIL_HPP
#define MRP_BENCH_BENCH_UTIL_HPP

#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "prof/clock.hpp"
#include "runner/experiment_runner.hpp"
#include "sim/multi_core.hpp"
#include "sim/single_core.hpp"
#include "trace/mix.hpp"
#include "trace/spec.hpp"
#include "trace/workloads.hpp"
#include "util/logging.hpp"
#include "util/math_util.hpp"
#include "util/parse_number.hpp"

namespace mrp::bench {

/** Integer scale knob @p name from the environment, else @p fallback;
 * FatalError(Config) when it is set but not an Int. */
template <typename Int = std::uint64_t>
Int
envCount(const char* name, std::type_identity_t<Int> fallback)
{
    if (const char* s = std::getenv(name))
        return flagInteger<Int>(name, s);
    return fallback;
}

inline InstCount
singleThreadInsts()
{
    return envCount<InstCount>("MRP_BENCH_INSTS", 2500000);
}

inline InstCount
multiCoreInsts()
{
    return envCount<InstCount>("MRP_BENCH_MC_INSTS", 800000);
}

inline unsigned
mixCount(unsigned fallback)
{
    return envCount<unsigned>("MRP_BENCH_MIXES", fallback);
}

/**
 * Worker-thread count for a bench: `--jobs N` on the command line,
 * else MRP_BENCH_JOBS, else 0 (ExperimentRunner picks the hardware
 * concurrency).
 */
inline unsigned
jobsFromArgs(int argc, char** argv)
{
    for (int i = 1; i + 1 < argc; ++i)
        if (std::strcmp(argv[i], "--jobs") == 0)
            return flagInteger<unsigned>("--jobs", argv[i + 1]);
    return envCount<unsigned>("MRP_BENCH_JOBS", 0);
}

/** Pre-generate the single-thread traces of the whole suite. */
inline std::vector<trace::Trace>
makeSuiteTraces(InstCount insts)
{
    std::vector<trace::Trace> out;
    out.reserve(trace::suiteSize());
    for (unsigned i = 0; i < trace::suiteSize(); ++i)
        out.push_back(trace::makeSuiteTrace(i, insts));
    return out;
}

/** Report one batch's execution metrics on stderr. */
inline void
reportBatch(const runner::RunSet& set)
{
    InstCount insts = 0;
    for (const auto& r : set.results)
        insts += r.instructions;
    std::fprintf(stderr,
                 "# batch: %zu runs, %u worker(s), %.2fs wall, "
                 "%.0f simulated insts/sec\n",
                 set.results.size(), set.jobs, set.wallSeconds,
                 prof::ratePerSecond(insts, set.wallSeconds));
}

/** Pre-generate the multi-core region traces of the whole suite. */
inline std::vector<trace::Trace>
makeSuiteRegions(InstCount insts)
{
    std::vector<trace::Trace> out;
    out.reserve(trace::suiteSize());
    for (unsigned i = 0; i < trace::suiteSize(); ++i)
        out.push_back(trace::makeSuiteTrace(i, insts));
    return out;
}

/** Borrowed TraceSpecs of one mix (for RunRequest::multiCore). */
inline std::array<trace::TraceSpec, 4>
mixSpecs(const std::vector<trace::Trace>& suite, const trace::Mix& mix)
{
    return {trace::TraceSpec::borrowed(suite[mix.benchmarks[0]]),
            trace::TraceSpec::borrowed(suite[mix.benchmarks[1]]),
            trace::TraceSpec::borrowed(suite[mix.benchmarks[2]]),
            trace::TraceSpec::borrowed(suite[mix.benchmarks[3]])};
}

/**
 * Fresh sources over one mix's traces. Sources are single-consumer,
 * so each sim::runMultiCore call opens its own set — even when the
 * same benchmark appears in several slots of the mix.
 */
class MixSources
{
  public:
    MixSources(const std::vector<trace::Trace>& suite,
               const trace::Mix& mix)
    {
        for (unsigned c = 0; c < 4; ++c)
            owned_[c] =
                std::make_unique<trace::MaterializedTraceSource>(
                    suite[mix.benchmarks[c]]);
    }

    std::array<trace::TraceSource*, 4>
    ptrs() const
    {
        return {owned_[0].get(), owned_[1].get(), owned_[2].get(),
                owned_[3].get()};
    }

  private:
    std::array<std::unique_ptr<trace::MaterializedTraceSource>, 4>
        owned_;
};

/**
 * Standalone LRU IPC for every benchmark of the suite (SingleIPC_i of
 * §4.5), computed once and indexed by benchmark id.
 */
inline std::vector<double>
standaloneIpcTable(const std::vector<trace::Trace>& suite,
                   const sim::MultiCoreConfig& cfg)
{
    std::vector<double> out;
    out.reserve(suite.size());
    for (const auto& t : suite) {
        trace::MaterializedTraceSource src(t);
        out.push_back(sim::standaloneIpc(src, cfg));
    }
    return out;
}

/** Normalized weighted speedups of one policy over a mix list. */
struct MultiCorePolicyResult
{
    std::string policy;
    std::vector<double> normalizedWs; //!< per mix, vs LRU
    std::vector<double> mpki;         //!< per mix
};

} // namespace mrp::bench

#endif // MRP_BENCH_BENCH_UTIL_HPP
