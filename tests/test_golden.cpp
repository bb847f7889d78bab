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
#include <cstdio>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "policy/min.hpp"
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

// The rows below pin the driver paths the tables above do not reach:
// a fixed-partition mix, a QoS mix that resizes, MIN's two-pass run,
// standalone IPC and an observed single-core run. They were recorded
// before the single-core and multi-core drivers were merged into one
// engine.

/** Hex-float text of @p v (exact), for failure messages. */
std::string
hexFloat(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", v);
    return buf;
}

/** One tenant's pinned outcome. */
struct TenantRow
{
    std::uint32_t waysInitial;
    std::uint32_t waysFinal;
    std::uint64_t demandMisses;
    std::uint64_t instructions;
    double mpki;
};

void
expectTenants(const MultiCoreResult& r, const std::vector<TenantRow>& rows)
{
    ASSERT_EQ(r.tenants.size(), rows.size());
    for (std::size_t t = 0; t < rows.size(); ++t) {
        const TenantOutcome& o = r.tenants[t];
        SCOPED_TRACE("tenant " + std::to_string(t));
        EXPECT_EQ(o.waysInitial, rows[t].waysInitial);
        EXPECT_EQ(o.waysFinal, rows[t].waysFinal);
        EXPECT_EQ(o.demandMisses, rows[t].demandMisses);
        EXPECT_EQ(o.instructions, rows[t].instructions);
        EXPECT_EQ(o.mpki, rows[t].mpki) << hexFloat(o.mpki);
        EXPECT_EQ(r.instructions.at(t), rows[t].instructions);
    }
}

/** Run a two-core mix of suite traces under @p cfg. */
MultiCoreResult
runPair(const char* a, const char* b, InstCount region,
        const char* policy, const MultiCoreConfig& cfg)
{
    trace::MaterializedTraceSource sa(
        trace::makeSuiteTrace(suiteIndex(a), region));
    trace::MaterializedTraceSource sb(
        trace::makeSuiteTrace(suiteIndex(b), region));
    return runMultiCore(std::vector<trace::TraceSource*>{&sa, &sb},
                        PolicyRegistry::make(policy), cfg);
}

MultiCoreConfig
pairConfig(std::uint32_t ways0, std::uint32_t ways1)
{
    MultiCoreConfig cfg;
    cfg.hierarchy.llcBytes = 256 * 1024;
    cfg.warmupInstructions = 40000;
    cfg.measureCycles = 60000;
    cfg.tenancy.tenants.resize(2);
    cfg.tenancy.tenants[0].ways = ways0;
    cfg.tenancy.tenants[1].ways = ways1;
    return cfg;
}

// Fixed 10/6 partition of a 256KB LLC, MPPPB-MC (private predictor
// state per tenant). Columns: ways initial, ways final, demand misses,
// measured instructions, MPKI.
const std::vector<TenantRow> kPartitionTenants = {
    {10, 10, 3728, 32065, 0x1.d10e2bd4ba577p+6},
    {6, 6, 3999, 27999, 0x1.1da72ee089ce6p+7},
};
constexpr std::uint64_t kPartitionMisses = 7727;

TEST(GoldenDriverTest, FixedPartitionMixMatchesFrozenRows)
{
    for (const bool telemetry : {false, true}) {
        SCOPED_TRACE(telemetry ? "telemetry" : "plain");
        MultiCoreConfig cfg = pairConfig(10, 6);
        cfg.telemetry.enabled = telemetry;
        const auto r =
            runPair("gups.2x", "thrash.2x", 120000, "MPPPB-MC", cfg);
        expectTenants(r, kPartitionTenants);
        EXPECT_EQ(r.llcDemandMisses, kPartitionMisses);
        EXPECT_TRUE(r.qosSchedule.empty());
        if (telemetry) {
            ASSERT_NE(r.telemetry, nullptr);
            EXPECT_EQ(counterOf(*r.telemetry, "tenant.0.ways"), 10u);
            EXPECT_EQ(counterOf(*r.telemetry, "tenant.1.ways"), 6u);
        }
    }
}

// A 4/12 split whose first tenant breaches a 0.05 MPKI SLO every
// 10k-instruction epoch, so QoS grants it ways. Schedule rows are
// {epoch, donor, receiver}.
const std::vector<std::array<std::uint64_t, 3>> kQosSchedule = {
    {0, 1, 0}, {1, 1, 0}, {2, 1, 0}};
const std::vector<TenantRow> kQosTenants = {
    {4, 7, 3721, 22011, 0x1.521a8a792ac4p+7},
    {12, 9, 4000, 16001, 0x1.f3f80020c4157p+7},
};

TEST(GoldenDriverTest, QosMixResizeScheduleMatchesFrozenRows)
{
    for (const bool telemetry : {false, true}) {
        SCOPED_TRACE(telemetry ? "telemetry" : "plain");
        MultiCoreConfig cfg = pairConfig(4, 12);
        cfg.tenancy.tenants[0].sloMpki = 0.05;
        cfg.tenancy.qos.enabled = true;
        cfg.tenancy.qos.epochInstructions = 10000;
        cfg.tenancy.qos.breachEpochs = 1;
        cfg.telemetry.enabled = telemetry;
        const auto r = runPair("scan.a", "sets.hotcold", 150000, "LRU", cfg);
        std::vector<std::array<std::uint64_t, 3>> schedule;
        for (const auto& q : r.qosSchedule)
            schedule.push_back({q.epoch, q.from, q.to});
        EXPECT_EQ(schedule, kQosSchedule);
        expectTenants(r, kQosTenants);
        EXPECT_EQ(r.tenants[0].sloMpki, 0.05);
        if (telemetry) {
            ASSERT_NE(r.telemetry, nullptr);
            EXPECT_EQ(counterOf(*r.telemetry, "tenant.qos_resizes"),
                      kQosSchedule.size());
        }
    }
}

/** The SingleCoreResult fields one MIN or observed row pins. */
struct SingleRow
{
    const char* benchmark;
    std::uint64_t instructions;
    std::uint64_t cycles;
    std::uint64_t llcDemandAccesses;
    std::uint64_t llcDemandMisses;
    std::uint64_t llcBypasses;
    double ipc;
};

void
expectSingle(const SingleCoreResult& r, const SingleRow& row)
{
    EXPECT_EQ(r.instructions, row.instructions);
    EXPECT_EQ(r.cycles, row.cycles);
    EXPECT_EQ(r.llcDemandAccesses, row.llcDemandAccesses);
    EXPECT_EQ(r.llcDemandMisses, row.llcDemandMisses);
    EXPECT_EQ(r.llcBypasses, row.llcBypasses);
    EXPECT_EQ(r.ipc, row.ipc) << hexFloat(r.ipc);
}

// Belady's MIN (recording pre-pass + replay), default hierarchy.
const std::vector<SingleRow> kMinRows = {
    {"gups.2x", 150000, 276932, 17587, 14709, 41, 0x1.15530bb3fdad9p-1},
    {"stream.mid", 150003, 262329, 9756, 9756, 5987, 0x1.24c49b7ae90b6p-1},
};

TEST(GoldenDriverTest, MinRunsMatchFrozenRows)
{
    for (const auto& row : kMinRows) {
        SCOPED_TRACE(row.benchmark);
        trace::MaterializedTraceSource src(trace::makeSuiteTrace(
            suiteIndex(row.benchmark), kSingleInsts));
        const auto r = runSingleCoreMin(src);
        EXPECT_EQ(r.policy, "MIN");
        expectSingle(r, row);
    }
}

// Standalone IPC (LRU, 1 core, looping) of the golden mix's traces
// under the mix's warmup budget and window.
const std::array<double, 4> kStandaloneIpc = {
    0x1.dd41743e963dcp-2, 0x1.994317acc4ef9p-2, 0x1.74bf0995aaf79p-2,
    0x1.10ed3d859c8c9p-2};

TEST(GoldenDriverTest, StandaloneIpcMatchesFrozenBits)
{
    MultiCoreConfig cfg;
    cfg.warmupInstructions = 400000;
    cfg.measureCycles = 100000;
    for (std::size_t k = 0; k < kMix.size(); ++k) {
        SCOPED_TRACE(kMix[k]);
        trace::MaterializedTraceSource src(
            trace::makeSuiteTrace(suiteIndex(kMix[k]), kMixRegion));
        const double ipc = standaloneIpc(src, cfg);
        EXPECT_EQ(ipc, kStandaloneIpc[k]) << hexFloat(ipc);
    }
}

/** FNV-1a (64-bit) over the little-endian bytes of @p seq. */
std::uint64_t
fnv1a(const std::vector<Addr>& seq)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Addr a : seq) {
        for (unsigned b = 0; b < 8; ++b) {
            h ^= (a >> (8 * b)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    return h;
}

// An LRU run with an access recorder attached: the observer sees the
// whole run, warmup included.
const SingleRow kObservedRow = {"sets.hotcold", 150000, 545039, 37500,
                                 36334, 0, 0x1.19d08fe7e6327p-2};
constexpr std::size_t kObservedLength = 83336;
constexpr std::uint64_t kObservedHash = 0x38a8a35f6ae1f340ull;

TEST(GoldenDriverTest, ObservedRunMatchesFrozenSequence)
{
    trace::MaterializedTraceSource src(trace::makeSuiteTrace(
        suiteIndex(kObservedRow.benchmark), kSingleInsts));
    policy::LlcAccessRecorder recorder;
    const auto r = runSingleCore(src, PolicyRegistry::make("LRU"),
                                 SingleCoreConfig{}, &recorder);
    expectSingle(r, kObservedRow);
    EXPECT_EQ(recorder.sequence().size(), kObservedLength);
    EXPECT_EQ(fnv1a(recorder.sequence()), kObservedHash);
}

// Zero warmup budgets, where the warmup rules' edge cases decide the
// window: a shared mix measures from the first record, a partitioned
// tenant from the end of its own first record, standalone IPC from
// the first record. Columns: per-core instructions, then LLC demand
// misses of the mix.
const std::array<std::uint64_t, 3> kNoWarmupShared = {31897, 27889, 7849};
const std::array<std::uint64_t, 3> kNoWarmupPartitioned = {32024, 28000,
                                                           7873};
constexpr double kNoWarmupStandaloneIpc = 0x1.10300f4aaf092p-1;

TEST(GoldenDriverTest, ZeroWarmupBudgetsMatchFrozenRows)
{
    MultiCoreConfig cfg = pairConfig(10, 6);
    cfg.warmupInstructions = 0;
    const auto part = runPair("gups.2x", "thrash.2x", 120000, "LRU", cfg);
    cfg.tenancy = {};
    const auto shared = runPair("gups.2x", "thrash.2x", 120000, "LRU", cfg);
    const std::array<std::uint64_t, 3> got_shared = {
        shared.instructions.at(0), shared.instructions.at(1),
        shared.llcDemandMisses};
    const std::array<std::uint64_t, 3> got_part = {
        part.instructions.at(0), part.instructions.at(1),
        part.llcDemandMisses};
    EXPECT_EQ(got_shared, kNoWarmupShared)
        << got_shared[0] << ", " << got_shared[1] << ", " << got_shared[2];
    EXPECT_EQ(got_part, kNoWarmupPartitioned)
        << got_part[0] << ", " << got_part[1] << ", " << got_part[2];

    trace::MaterializedTraceSource src(
        trace::makeSuiteTrace(suiteIndex("gups.2x"), 120000));
    const double ipc = standaloneIpc(src, cfg);
    EXPECT_EQ(ipc, kNoWarmupStandaloneIpc) << hexFloat(ipc);
}

} // namespace
} // namespace mrp::sim
