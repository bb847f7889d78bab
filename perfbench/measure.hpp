/**
 * @file
 * Host-side measurement helpers of the benchmark: trial meters
 * (wall time, process CPU time, involuntary context switches),
 * order statistics, and the metric list a run prints.
 */

#ifndef PERFBENCH_MEASURE_HPP
#define PERFBENCH_MEASURE_HPP

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One trial's host cost. */
struct TrialSample
{
    double wallS = 0.0;
    double cpuS = 0.0;      //!< user + system time of the whole process
    long involuntary = 0;   //!< involuntary context switches
};

/** Brackets one trial with a wall clock and getrusage(RUSAGE_SELF). */
class TrialMeter
{
  public:
    TrialMeter();
    TrialSample stop() const;

  private:
    Clock::time_point t0_;
    rusage ru0_{};
};

/**
 * A trial is suspect when the process got less than 85% of the CPU
 * its @p threads busy threads should have had, or was preempted more
 * than 50 times per second: both mean another tenant of the host
 * took time that the wall clock charged to the simulator.
 */
bool suspect(const TrialSample& t, double threads);

/**
 * Host-speed probe. A shared host can change speed by up to 2x over
 * tens of seconds as other tenants contend for its caches and memory
 * (measured on a shared 4-vCPU Xeon VM); neither CPU time nor pinning
 * shows it. A fixed kernel of the benchmark's own with the simulator's
 * access pattern (a 16-way set-associative tag store with LRU stamps
 * plus a perceptron-like weight table, about 0.5 MB) tracks those
 * shifts: on that VM its median time over 20 s windows correlated with
 * simulation times at r = 0.97. Host-time metrics are reported in
 * reference seconds: each trial's host seconds times kReferenceMs over
 * the probe time taken just before it.
 */
class HostProbe
{
  public:
    static constexpr double kReferenceMs = 20.0;

    /** Sample once if @p every_s has passed since the last sample. */
    void maybeSample(double every_s);
    void sample();

    /** Reference seconds per host second (1 at the reference speed). */
    double scale() const;
    /** As scale(), from the latest sample alone. */
    double lastScale() const;
    std::size_t samples() const { return ms_.size(); }

  private:
    std::vector<double> ms_;
    Clock::time_point last_{};
};

double median(std::vector<double> v);

/** Quartiles as Python's statistics.quantiles(v, n=4) gives them. */
std::vector<double> quartiles(std::vector<double> v);

/** (Q3 - Q1) / median, in percent. */
double iqrPercent(const std::vector<double>& v);

/**
 * Tail latency: the 90th percentile (nearest rank), which has at least
 * ten samples above it from 100 samples on, and every workload's run
 * takes more. Higher percentiles would pass the ten-sample rule on
 * some workloads only, and there they rest on a handful of host
 * hiccups. Below 100 samples: the highest sample with ten above it.
 */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;
    std::size_t samples = 0;
    std::size_t above = 0; //!< samples greater than value's rank
};
Tail tail(std::vector<double> v);

/** Geometric mean; values are floored at @p floor first. */
double geomean(const std::vector<double>& v, double floor = 0.0);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; //!< printed beside the value, not in the JSON
    bool layer = false; //!< per-layer (traced run) rather than end-to-end
};

/** Everything one benchmark run reports. */
struct RunReport
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; //!< first reason per kind
    std::vector<std::string> notes;    //!< human-readable context
    std::vector<Metric> metrics;

    void fail(const std::string& why, std::uint64_t n = 1);
    /** An end-to-end metric. */
    void add(std::string name, double value, std::string unit,
             std::string note = {});
    /** A per-layer metric. */
    void layer(std::string name, double value, std::string unit,
               std::string note = {});
};

} // namespace perfbench

#endif // PERFBENCH_MEASURE_HPP
