/**
 * @file
 * The benchmark's four workloads. Each generates its inputs from the
 * seed, sets up several times (setup_s is their median), simulates in
 * interleaved trials for the requested seconds, checks the simulated
 * results, and, when traced, measures each layer by replay.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "measure.hpp"

namespace perfbench {

/** The seed whose results are pinned in expected/<workload>.json. */
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string workDir = ".";  //!< scratch files (st_l1 traces)
    std::string expectedDir = "."; //!< holds <workload>.json
    /** Pin this run's counters instead of checking them. */
    bool writeExpected = false;
    /** Busy-wait added to every LLC policy hook (attribution check). */
    std::uint64_t stallNs = 0;
};

/** Simulated counters per result label, for the expected-results check. */
using CounterTable = std::map<std::string, std::vector<std::uint64_t>>;

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string>& workloadNames();

/** Run one workload; throws FatalError on unknown names. */
RunReport runWorkload(const Options& opt, CounterTable& counters);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
