/**
 * @file
 * Property tests of the 4-core driver: determinism, mix-order
 * independence of per-benchmark generation, and sane interaction
 * between policies and shared-cache pressure.
 */

#include <gtest/gtest.h>

#include "sim/multi_core.hpp"
#include "trace/mix.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

namespace mrp::sim {
namespace {

MultiCoreConfig
fastConfig()
{
    MultiCoreConfig cfg;
    cfg.warmupInstructions = 300000;
    cfg.measureCycles = 120000;
    return cfg;
}

TEST(MultiCoreProperties, DeterministicAcrossRuns)
{
    const auto t0 = trace::makeSuiteTrace(7, 200000);
    const auto t1 = trace::makeSuiteTrace(9, 200000);
    const auto t2 = trace::makeSuiteTrace(14, 200000);
    const auto t3 = trace::makeSuiteTrace(25, 200000);
    trace::MaterializedTraceSource s0(t0), s1(t1), s2(t2), s3(t3);
    const std::array<trace::TraceSource*, 4> mix = {&s0, &s1, &s2,
                                                    &s3};
    const auto cfg = fastConfig();
    // The second call reuses the same sources: the driver rewinds
    // them, so replay is part of what this determinism check covers.
    const auto a =
        runMultiCore(mix, PolicyRegistry::make("MPPPB-MC"), cfg);
    const auto b =
        runMultiCore(mix, PolicyRegistry::make("MPPPB-MC"), cfg);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.llcDemandMisses, b.llcDemandMisses);
}

TEST(MultiCoreProperties, CorePlacementMatters)
{
    // Permuting which core runs which trace changes per-core IPC
    // assignment but the multiset of IPCs should be similar: check
    // the aggregate instruction throughput is stable within 20%.
    const auto t0 = trace::makeSuiteTrace(7, 200000);
    const auto t1 = trace::makeSuiteTrace(9, 200000);
    const auto t2 = trace::makeSuiteTrace(14, 200000);
    const auto t3 = trace::makeSuiteTrace(25, 200000);
    trace::MaterializedTraceSource s0(t0), s1(t1), s2(t2), s3(t3);
    const auto cfg = fastConfig();
    const auto a = runMultiCore({&s0, &s1, &s2, &s3},
                                PolicyRegistry::make("LRU"), cfg);
    const auto b = runMultiCore({&s3, &s2, &s1, &s0},
                                PolicyRegistry::make("LRU"), cfg);
    InstCount ia = 0, ib = 0;
    for (unsigned c = 0; c < 4; ++c) {
        ia += a.instructions[c];
        ib += b.instructions[c];
    }
    EXPECT_NEAR(static_cast<double>(ia), static_cast<double>(ib),
                0.2 * static_cast<double>(ia));
}

TEST(MultiCoreProperties, EveryPaperPolicyRunsAMix)
{
    const auto t0 = trace::makeSuiteTrace(0, 150000);
    const auto t1 = trace::makeSuiteTrace(7, 150000);
    const auto t2 = trace::makeSuiteTrace(21, 150000);
    const auto t3 = trace::makeSuiteTrace(30, 150000);
    trace::MaterializedTraceSource s0(t0), s1(t1), s2(t2), s3(t3);
    const std::array<trace::TraceSource*, 4> mix = {&s0, &s1, &s2,
                                                    &s3};
    MultiCoreConfig cfg;
    cfg.warmupInstructions = 150000;
    cfg.measureCycles = 60000;
    for (const char* p :
         {"LRU", "Perceptron", "Hawkeye", "MPPPB-MC", "SHiP"}) {
        const auto r = runMultiCore(mix, PolicyRegistry::make(p), cfg);
        for (unsigned c = 0; c < 4; ++c) {
            EXPECT_GT(r.ipc[c], 0.0) << p;
            EXPECT_LE(r.ipc[c], 4.0) << p;
        }
    }
}

TEST(MultiCoreProperties, MemoryHogDegradesNeighbors)
{
    // Replacing a compute-bound co-runner with a thrasher must not
    // *improve* a fixed benchmark's IPC.
    const auto victim = trace::makeSuiteTrace(9, 250000);  // scan.a
    const auto quiet = trace::makeSuiteTrace(0, 250000);   // compute
    const auto hog = trace::makeSuiteTrace(8, 250000);     // thrash.3x
    const auto cfg = fastConfig();
    // Sources are single-consumer: a trace shared by several cores
    // needs one source (own cursor) per slot.
    trace::MaterializedTraceSource v0(victim), q1(quiet), q2(quiet),
        q3(quiet), h1(hog), h2(hog), h3(hog);
    const auto calm = runMultiCore({&v0, &q1, &q2, &q3},
                                   PolicyRegistry::make("LRU"), cfg);
    const auto loud = runMultiCore({&v0, &h1, &h2, &h3},
                                   PolicyRegistry::make("LRU"), cfg);
    EXPECT_LE(loud.ipc[0], calm.ipc[0] * 1.05);
}

} // namespace
} // namespace mrp::sim
