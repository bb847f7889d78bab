/**
 * @file
 * Frozen golden counters. Each row pins the simulated outcome of one
 * run — LLC traffic, DRAM traffic, retired instructions, cycles and
 * the predictor's training and summed confidences — to values recorded
 * before the predictor, cache and prefetcher hot paths were rewritten
 * for speed. Any change to these runs' results fails here; an
 * optimization that keeps results bit-identical passes unchanged.
 *
 * Every run is done twice: plain (the fast path every experiment
 * takes) and with telemetry attached (which exposes the DRAM and
 * per-type LLC counters). Both must match the same row. When a
 * semantic change is intended, the failure message prints the new row
 * ready to paste.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "sim/multi_core.hpp"
#include "sim/policies.hpp"
#include "sim/single_core.hpp"
#include "telemetry/session.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

namespace mrp::sim {
namespace {

/** The counters one golden row pins. */
struct Counters
{
    std::uint64_t instructions = 0; //!< retired, measured window
    std::uint64_t cycles = 0;       //!< single-core only (0 for mixes)
    std::uint64_t llcAccesses = 0;  //!< demand + prefetch + writeback
    std::uint64_t llcDemandHits = 0;
    std::uint64_t llcDemandMisses = 0;
    std::uint64_t llcBypasses = 0;
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t trainingEvents = 0; //!< sampler events, whole run
    std::int64_t confidenceSum = 0;   //!< over every predicted access

    bool operator==(const Counters&) const = default;
};

std::ostream&
operator<<(std::ostream& os, const Counters& c)
{
    return os << '{' << c.instructions << ", " << c.cycles << ", "
              << c.llcAccesses << ", " << c.llcDemandHits << ", "
              << c.llcDemandMisses << ", " << c.llcBypasses << ", "
              << c.dramReads << ", " << c.dramWrites << ", "
              << c.trainingEvents << ", " << c.confidenceSum << '}';
}

struct GoldenRow
{
    const char* benchmark;
    const char* policy;
    Counters expected;
};

constexpr InstCount kSingleInsts = 200000;

// Single-core runs: 200k-instruction suite traces (canonical salt),
// default 2MB/16-way hierarchy with the stream prefetcher on. Columns
// follow Counters: instructions, cycles, LLC accesses, demand hits,
// demand misses, bypasses, DRAM reads, DRAM writes, training events,
// confidence sum.
// clang-format off
const std::vector<GoldenRow> kSingleCore = {
    {"thrash.2x", "MPPPB", {150003, 321368, 21429, 0, 21429, 0, 21429, 0, 893, 1778594}},
    {"thrash.2x", "LRU", {150003, 321368, 21429, 0, 21429, 0, 21429, 0, 0, 0}},
    {"gups.2x", "MPPPB", {150000, 276932, 35434, 2876, 14711, 1, 14950, 49, 737, -2269019}},
    {"gups.2x", "LRU", {150000, 276932, 35434, 2875, 14712, 0, 14951, 48, 0, 0}},
    {"mixpc.hi", "MPPPB", {150000, 375108, 25000, 0, 25000, 566, 25000, 0, 1043, 2995323}},
    {"mixpc.hi", "LRU", {150000, 375108, 25000, 0, 25000, 0, 25000, 0, 0, 0}},
    {"stream.mid", "MPPPB", {150003, 262329, 32927, 0, 9756, 6257, 29268, 270, 1220, 4232801}},
    {"stream.mid", "LRU", {150003, 262329, 32927, 0, 9756, 0, 29268, 782, 0, 0}},
};
// clang-format on

// One 4-core mix under the multi-core predictor configuration.
const std::array<const char*, 4> kMix = {"thrash.2x", "mixpc.hi",
                                         "scan.a", "sets.hotcold"};
constexpr InstCount kMixRegion = 200000;
const Counters kMixGolden = {150860, 0,    31963, 0, 26151,
                             1673,   31963, 0,     3908, 6733756};
const std::array<std::uint64_t, 4> kMixCoreInsts = {46684, 39997, 37491,
                                                    26688};

unsigned
suiteIndex(const std::string& name)
{
    const auto names = trace::suiteNames();
    for (unsigned i = 0; i < names.size(); ++i)
        if (names[i] == name)
            return i;
    ADD_FAILURE() << "unknown suite benchmark " << name;
    return 0;
}

std::uint64_t
counterOf(const telemetry::RunTelemetry& t, const char* name)
{
    const auto* m = t.finalSnapshot.find(name);
    EXPECT_NE(m, nullptr) << name;
    if (!m)
        return 0;
    return m->kind == telemetry::MetricSnapshot::Kind::Gauge
               ? static_cast<std::uint64_t>(m->gauge)
               : m->counter;
}

/** Fill the telemetry-only fields of @p c from a finished run. */
void
addTelemetry(Counters& c, const telemetry::RunTelemetry& t)
{
    c.llcAccesses = counterOf(t, "llc.demand_accesses") +
                    counterOf(t, "llc.prefetch_accesses") +
                    counterOf(t, "llc.writeback_accesses");
    c.llcDemandHits = counterOf(t, "llc.demand_hits");
    c.dramReads = counterOf(t, "mem.dram_reads");
    c.dramWrites = counterOf(t, "mem.dram_writes");
    // Predictor state pins the exact confidence of every access, not
    // only the decisions it changed; LRU runs register none of it.
    if (t.finalSnapshot.find("predictor.training_events")) {
        c.trainingEvents = counterOf(t, "predictor.training_events");
        for (const char* h :
             {"predictor.confidence.hit", "predictor.confidence.miss"})
            c.confidenceSum += t.finalSnapshot.find(h)->histogram.sum;
    }
}

/** Zero the fields a plain (telemetry-off) run cannot observe. */
Counters
plainView(Counters c)
{
    c.llcAccesses = c.llcDemandHits = c.dramReads = c.dramWrites = 0;
    c.trainingEvents = 0;
    c.confidenceSum = 0;
    return c;
}

Counters
runSingle(const trace::Trace& tr, const std::string& policy,
          bool telemetry)
{
    trace::MaterializedTraceSource src(tr);
    SingleCoreConfig cfg;
    cfg.telemetry.enabled = telemetry;
    const auto r = runSingleCore(src, PolicyRegistry::make(policy), cfg);
    Counters c;
    c.instructions = r.instructions;
    c.cycles = r.cycles;
    c.llcDemandMisses = r.llcDemandMisses;
    c.llcBypasses = r.llcBypasses;
    if (telemetry) {
        EXPECT_NE(r.telemetry, nullptr);
        if (r.telemetry) {
            addTelemetry(c, *r.telemetry);
            EXPECT_EQ(counterOf(*r.telemetry, "llc.bypasses"),
                      r.llcBypasses);
            EXPECT_EQ(counterOf(*r.telemetry, "llc.demand_accesses"),
                      r.llcDemandAccesses);
        }
    }
    return c;
}

TEST(GoldenCountersTest, SingleCoreRunsMatchFrozenTable)
{
    for (const auto& row : kSingleCore) {
        SCOPED_TRACE(std::string(row.benchmark) + "/" + row.policy);
        const auto tr =
            trace::makeSuiteTrace(suiteIndex(row.benchmark), kSingleInsts);
        const Counters full = runSingle(tr, row.policy, true);
        EXPECT_EQ(full, row.expected)
            << "actual row: {\"" << row.benchmark << "\", \""
            << row.policy << "\", " << full << "},";
        EXPECT_EQ(runSingle(tr, row.policy, false),
                  plainView(row.expected));
    }
}

TEST(GoldenCountersTest, TableExercisesThePredictor)
{
    // The rows only guard the predictor if MPPPB actually decides
    // something at this run length: it must bypass somewhere and move
    // at least one trace's misses away from LRU's.
    bool differs = false;
    std::uint64_t bypasses = 0;
    for (std::size_t i = 0; i + 1 < kSingleCore.size(); i += 2) {
        const Counters& mpppb = kSingleCore[i].expected;
        const Counters& lru = kSingleCore[i + 1].expected;
        bypasses += mpppb.llcBypasses;
        EXPECT_GT(mpppb.trainingEvents, 0u);
        EXPECT_EQ(lru.llcBypasses, 0u);
        EXPECT_EQ(lru.trainingEvents, 0u);
        differs = differs || mpppb.llcDemandMisses != lru.llcDemandMisses;
    }
    EXPECT_GT(bypasses, 0u);
    EXPECT_TRUE(differs);
    EXPECT_GT(kMixGolden.llcBypasses, 0u);
    EXPECT_GT(kMixGolden.trainingEvents, 0u);
}

TEST(GoldenCountersTest, MultiCoreMixMatchesFrozenTable)
{
    std::vector<trace::Trace> traces;
    for (const char* name : kMix)
        traces.push_back(
            trace::makeSuiteTrace(suiteIndex(name), kMixRegion));
    std::vector<std::unique_ptr<trace::MaterializedTraceSource>> owned;
    std::vector<trace::TraceSource*> mix;

    for (const bool telemetry : {true, false}) {
        SCOPED_TRACE(telemetry ? "telemetry" : "plain");
        owned.clear();
        mix.clear();
        for (const auto& t : traces) {
            owned.push_back(
                std::make_unique<trace::MaterializedTraceSource>(t));
            mix.push_back(owned.back().get());
        }
        MultiCoreConfig cfg;
        cfg.warmupInstructions = 400000;
        cfg.measureCycles = 100000;
        cfg.telemetry.enabled = telemetry;
        const auto r = runMultiCore(
            std::span<trace::TraceSource* const>(mix),
            PolicyRegistry::make("MPPPB-MC"), cfg);

        Counters c;
        std::array<std::uint64_t, 4> core_insts{};
        for (std::size_t k = 0; k < core_insts.size(); ++k) {
            core_insts[k] = r.instructions.at(k);
            c.instructions += r.instructions.at(k);
        }
        c.llcDemandMisses = r.llcDemandMisses;
        if (telemetry) {
            ASSERT_NE(r.telemetry, nullptr);
            addTelemetry(c, *r.telemetry);
            c.llcBypasses = counterOf(*r.telemetry, "llc.bypasses");
            EXPECT_EQ(c, kMixGolden) << "actual: " << c;
        } else {
            Counters expected = plainView(kMixGolden);
            expected.llcBypasses = 0; // not in the plain result
            EXPECT_EQ(c, expected);
        }
        EXPECT_EQ(core_insts, kMixCoreInsts)
            << "actual: {" << core_insts[0] << ", " << core_insts[1]
            << ", " << core_insts[2] << ", " << core_insts[3] << '}';
    }
}

} // namespace
} // namespace mrp::sim
