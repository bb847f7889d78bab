/**
 * @file
 * Per-layer instruments. Everything here sits outside the simulator
 * and reaches it only through public interfaces: a policy decorator
 * that times, stalls or records the LLC policy hooks, a trace-source
 * decorator that counts delivered instructions, an Executor decorator
 * that times runner batches, and replays of a recorded workload
 * through one layer at a time (LLC, predictor, hierarchy, prefetcher).
 */

#ifndef PERFBENCH_LAYERS_HPP
#define PERFBENCH_LAYERS_HPP

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/llc_policy.hpp"
#include "core/mpppb.hpp"
#include "runner/executor.hpp"
#include "runner/experiment_runner.hpp"
#include "sim/policies.hpp"
#include "trace/source.hpp"

namespace perfbench {

using namespace mrp;

/** The LLC reference stream of one run, as the policy saw it. */
struct LlcStream
{
    std::vector<cache::AccessInfo> accesses; //!< ctx re-pointed on replay
    std::vector<cache::CoreContext> contexts; //!< PC history per access
    std::vector<bool> hasContext;
    std::vector<bool> hit;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bypasses = 0;
};

/** What a ProbePolicy collects; owned by the caller. */
struct PolicyProbe
{
    bool time = false;         //!< time every decision hook
    std::uint64_t stallNs = 0; //!< busy-wait per hook (self-check)
    LlcStream* record = nullptr;

    double hookNs = 0.0;
    std::uint64_t hookCalls = 0;
    /** Training events of the wrapped MPPPB predictor at teardown. */
    std::uint64_t trainingEvents = 0;
};

/**
 * Wrap every policy @p inner builds in a ProbePolicy reporting to
 * @p probe (which must outlive every policy built).
 */
sim::PolicyFactory probed(sim::PolicyFactory inner, PolicyProbe* probe);

/** Host cost of one steady_clock::now() pair, subtracted from hooks. */
double clockPairNs();

/**
 * Trace-source decorator counting delivered instructions. Drivers
 * pull at most one chunk ahead, so the count exceeds the simulated
 * instructions by under one chunk per core (exact when drained).
 */
class CountingSource final : public trace::TraceSource
{
  public:
    explicit CountingSource(std::unique_ptr<trace::TraceSource> inner)
        : inner_(std::move(inner))
    {
    }

    const std::string& name() const override { return inner_->name(); }
    InstCount instructions() const override
    {
        return inner_->instructions();
    }
    std::span<const trace::Record> nextChunk() override;
    void reset() override { inner_->reset(); }

    std::uint64_t delivered() const { return delivered_; }

  private:
    std::unique_ptr<trace::TraceSource> inner_;
    std::uint64_t delivered_ = 0;
};

/** What a TimedExecutor saw. */
struct ExecStats
{
    double batchS = 0.0; //!< wall inside run()
    double runS = 0.0;   //!< sum of per-run wall
    std::uint64_t runs = 0;
    std::uint64_t insts = 0; //!< trace instructions simulated
    /** Per-run wall in ms, by trace name. */
    std::map<std::string, std::vector<double>> runMs;
    double hookNs = 0.0;
    std::uint64_t hookCalls = 0;
};

/**
 * Executor decorator timing each batch and its runs. With
 * @p hook_timing, every MPPPB-by-configuration request runs under a
 * timing ProbePolicy of its own (runs execute on several threads).
 */
class TimedExecutor final : public runner::Executor
{
  public:
    TimedExecutor(unsigned jobs, bool hook_timing)
        : pool_(jobs), hookTiming_(hook_timing)
    {
    }

    runner::RunSet run(const std::vector<runner::RunRequest>& batch,
                       const runner::RunnerOptions& options) const override;

    const ExecStats& stats() const { return stats_; }

  private:
    runner::ExperimentRunner pool_;
    bool hookTiming_;
    mutable ExecStats stats_;
};

/** Outcome of replaying a stream through a fresh PolicyCache. */
struct LlcReplay
{
    double nsPerAccess = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t bypasses = 0;
};

LlcReplay replayLlc(const LlcStream& s, const sim::PolicyFactory& factory,
                    const cache::HierarchyConfig& h, unsigned cores);

/** Standalone predictor replay: ns per observe() and training events. */
struct PredictorReplay
{
    double nsPerCall = 0.0;
    std::uint64_t calls = 0;
    std::uint64_t trainingEvents = 0;
};

PredictorReplay replayPredictor(const LlcStream& s,
                                const core::MpppbConfig& cfg,
                                const cache::HierarchyConfig& h,
                                unsigned cores);

/** Single-core hierarchy replay of one trace's memory records. */
struct HierarchyReplay
{
    double nsPerAccess = 0.0;
    std::uint64_t accesses = 0;
    std::uint64_t l1Accesses = 0, l1Misses = 0;
    std::uint64_t l2Accesses = 0, l2Misses = 0;
    LlcReplay llc; //!< whole-run LLC outcome counts
    double prefetchNsPerMiss = 0.0;
    std::uint64_t prefetchIssued = 0;
    std::uint64_t prefetchUseful = 0;
    bool prefetchReplayMatches = true;
};

HierarchyReplay replayHierarchy(trace::TraceSource& src,
                                const sim::PolicyFactory& factory,
                                const cache::HierarchyConfig& h);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HPP
