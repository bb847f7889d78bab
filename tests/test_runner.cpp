/**
 * @file
 * Tests for the parallel experiment runner: deterministic results and
 * byte-identical reports across worker counts, request-index result
 * ordering, multi-core and MIN dispatch, per-run error capture, and
 * the RunSet aggregation helpers.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "sim/multi_core.hpp"
#include "sim/single_core.hpp"
#include "trace/source.hpp"
#include "trace/spec.hpp"
#include "trace/workloads.hpp"
#include "util/logging.hpp"

namespace mrp::runner {
namespace {

/** Requests borrow the traces: callers keep them alive. */
std::vector<RunRequest>
smallBatch(std::initializer_list<const trace::Trace*> traces)
{
    std::vector<RunRequest> batch;
    for (const auto* tr : traces)
        for (const char* p : {"LRU", "SRRIP", "MPPPB"})
            batch.push_back(RunRequest::singleCore(
                trace::TraceSpec::borrowed(*tr),
                PolicySpec::byName(p)));
    return batch;
}

TEST(ExperimentRunnerTest, ResultsKeyedByRequestIndex)
{
    const auto t0 = trace::makeSuiteTrace(4, 60000);
    const auto t1 = trace::makeSuiteTrace(9, 60000);
    const auto batch = smallBatch({&t0, &t1});
    const auto set = ExperimentRunner(2).run(batch);
    ASSERT_EQ(set.results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(set.results[i].index, i);
        EXPECT_EQ(set.results[i].policy, batch[i].policy.name);
        EXPECT_EQ(set.results[i].benchmark,
                  batch[i].sources[0].displayName());
        EXPECT_TRUE(set.results[i].ok()) << set.results[i].error;
        EXPECT_GT(set.results[i].ipc, 0.0);
    }
}

TEST(ExperimentRunnerTest, DeterministicAcrossWorkerCounts)
{
    const auto t0 = trace::makeSuiteTrace(4, 60000);
    const auto t1 = trace::makeSuiteTrace(9, 60000);
    const auto t2 = trace::makeSuiteTrace(14, 60000);
    const auto batch = smallBatch({&t0, &t1, &t2});

    const auto s1 = ExperimentRunner(1).run(batch);
    const auto s2 = ExperimentRunner(2).run(batch);
    const auto s8 = ExperimentRunner(8).run(batch);
    EXPECT_EQ(s1.jobs, 1u);
    EXPECT_EQ(s2.jobs, 2u);
    EXPECT_EQ(s8.jobs, 8u);

    // The default (timing-free) reports must be byte-identical.
    EXPECT_EQ(toJson(s1), toJson(s2));
    EXPECT_EQ(toJson(s1), toJson(s8));
    EXPECT_EQ(toCsv(s1), toCsv(s2));
    EXPECT_EQ(toCsv(s1), toCsv(s8));

    // And the underlying metrics bit-identical run by run.
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(s1.results[i].ipc, s8.results[i].ipc) << i;
        EXPECT_EQ(s1.results[i].llcDemandMisses,
                  s8.results[i].llcDemandMisses)
            << i;
    }
}

TEST(ExperimentRunnerTest, MatchesDirectSingleCoreRun)
{
    const auto tr = trace::makeSuiteTrace(7, 60000);
    trace::MaterializedTraceSource src(tr);
    const auto direct =
        sim::runSingleCore(src, sim::PolicyRegistry::make("MPPPB"), {});
    const auto viaRunner = ExperimentRunner::runOne(
        RunRequest::singleCore(trace::TraceSpec::borrowed(tr),
                               PolicySpec::byName("MPPPB")));
    EXPECT_EQ(viaRunner.ipc, direct.ipc);
    EXPECT_EQ(viaRunner.llcDemandMisses, direct.llcDemandMisses);
    EXPECT_EQ(viaRunner.instructions, direct.instructions);
    EXPECT_GT(viaRunner.wallSeconds, 0.0);
    EXPECT_GT(viaRunner.instsPerSecond, 0.0);
}

TEST(ExperimentRunnerTest, MinDispatchesToTwoPassOracle)
{
    const auto tr = trace::makeSuiteTrace(6, 120000);
    trace::MaterializedTraceSource src(tr);
    const auto direct = sim::runSingleCoreMin(src, {});
    const auto viaRunner = ExperimentRunner::runOne(
        RunRequest::singleCore(trace::TraceSpec::borrowed(tr),
                               PolicySpec::byName("MIN")));
    EXPECT_EQ(viaRunner.policy, "MIN");
    EXPECT_EQ(viaRunner.ipc, direct.ipc);
    EXPECT_EQ(viaRunner.llcDemandMisses, direct.llcDemandMisses);
}

TEST(ExperimentRunnerTest, MultiCoreRequestMatchesDirectRun)
{
    const auto t0 = trace::makeSuiteTrace(0, 60000);
    const auto t1 = trace::makeSuiteTrace(4, 60000);
    const auto t2 = trace::makeSuiteTrace(7, 60000);
    const auto t3 = trace::makeSuiteTrace(25, 60000);
    // Sources are single-consumer: one per slot for the direct run.
    trace::MaterializedTraceSource s0(t0), s1(t1), s2(t2), s3(t3);
    const std::array<trace::TraceSource*, 4> mix = {&s0, &s1, &s2,
                                                    &s3};
    sim::MultiCoreConfig cfg;
    cfg.warmupInstructions = 40000;
    cfg.measureCycles = 50000;
    const auto direct =
        sim::runMultiCore(mix, sim::PolicyRegistry::make("LRU"), cfg);
    const std::array<trace::TraceSpec, 4> specs = {
        trace::TraceSpec::borrowed(t0), trace::TraceSpec::borrowed(t1),
        trace::TraceSpec::borrowed(t2), trace::TraceSpec::borrowed(t3)};
    const auto viaRunner = ExperimentRunner::runOne(
        RunRequest::multiCore(specs, PolicySpec::byName("LRU"), cfg));
    ASSERT_TRUE(viaRunner.ok()) << viaRunner.error;
    EXPECT_TRUE(viaRunner.multiCore);
    ASSERT_EQ(viaRunner.coreIpc.size(), 4u);
    for (unsigned c = 0; c < 4; ++c)
        EXPECT_EQ(viaRunner.coreIpc[c], direct.ipc[c]) << c;
    EXPECT_EQ(viaRunner.mpki, direct.mpki);
    EXPECT_EQ(viaRunner.benchmark, direct.mixName);
}

TEST(ExperimentRunnerTest, UnknownPolicyCapturedPerRun)
{
    const auto tr = trace::makeSuiteTrace(4, 60000);
    std::vector<RunRequest> batch = {
        RunRequest::singleCore(trace::TraceSpec::borrowed(tr),
                               PolicySpec::byName("LRU")),
        RunRequest::singleCore(trace::TraceSpec::borrowed(tr),
                               PolicySpec::byName("NoSuchPolicy")),
    };
    const auto set = ExperimentRunner(2).run(batch);
    EXPECT_TRUE(set.results[0].ok());
    EXPECT_FALSE(set.results[1].ok());
    EXPECT_NE(set.results[1].error.find("NoSuchPolicy"),
              std::string::npos);
    EXPECT_EQ(set.results[1].ipc, 0.0);
}

TEST(ExperimentRunnerTest, MinOnMultiCoreIsARunError)
{
    const auto t0 = trace::makeSuiteTrace(0, 60000);
    // Specs may share a trace: the runner opens one source per slot.
    const std::array<trace::TraceSpec, 4> mix = {
        trace::TraceSpec::borrowed(t0), trace::TraceSpec::borrowed(t0),
        trace::TraceSpec::borrowed(t0), trace::TraceSpec::borrowed(t0)};
    sim::MultiCoreConfig cfg;
    cfg.warmupInstructions = 40000;
    cfg.measureCycles = 50000;
    const auto r = ExperimentRunner::runOne(
        RunRequest::multiCore(mix, PolicySpec::byName("MIN"), cfg));
    EXPECT_FALSE(r.ok());
}

TEST(ExperimentRunnerTest, MalformedRequestThrowsEagerly)
{
    const auto tr = trace::makeSuiteTrace(0, 60000);
    RunRequest bad = RunRequest::singleCore(
        trace::TraceSpec::borrowed(tr), PolicySpec::byName("LRU"));
    // 2 sources on a single-core config
    bad.sources.push_back(trace::TraceSpec::borrowed(tr));
    EXPECT_THROW(ExperimentRunner(1).run({bad}), FatalError);

    RunRequest no_policy = RunRequest::singleCore(
        trace::TraceSpec::borrowed(tr), PolicySpec::byName(""));
    EXPECT_THROW(ExperimentRunner(1).run({no_policy}), FatalError);
}

TEST(ExperimentRunnerTest, CustomFactorySpecRuns)
{
    const auto tr = trace::makeSuiteTrace(4, 60000);
    auto spec = PolicySpec::custom(
        "my-lru", sim::PolicyRegistry::make("LRU"));
    const auto r = ExperimentRunner::runOne(RunRequest::singleCore(
        trace::TraceSpec::borrowed(tr), std::move(spec)));
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_GT(r.ipc, 0.0);
}

TEST(RunSetTest, PolicySummariesAggregateByPolicy)
{
    const auto t0 = trace::makeSuiteTrace(4, 60000);
    const auto t1 = trace::makeSuiteTrace(9, 60000);
    const auto set = ExperimentRunner(2).run(smallBatch({&t0, &t1}));
    const auto summaries = set.policySummaries();
    ASSERT_EQ(summaries.size(), 3u); // LRU, SRRIP, MPPPB
    EXPECT_EQ(summaries[0].policy, "LRU");
    EXPECT_EQ(summaries[0].runs, 2u);
    const double expect_geomean = std::sqrt(set.results[0].ipc *
                                            set.results[3].ipc);
    EXPECT_NEAR(summaries[0].geomeanIpc, expect_geomean, 1e-12);
    const double expect_mean =
        0.5 * (set.results[0].mpki + set.results[3].mpki);
    EXPECT_NEAR(summaries[0].meanMpki, expect_mean, 1e-12);
}

TEST(RunSetTest, SpeedupOverFindsSameBenchmarkBaseline)
{
    const auto t0 = trace::makeSuiteTrace(4, 60000);
    const auto t1 = trace::makeSuiteTrace(9, 60000);
    const auto set = ExperimentRunner(2).run(smallBatch({&t0, &t1}));
    // Request 4 is t1/SRRIP; its LRU baseline is request 3, not 0.
    EXPECT_DOUBLE_EQ(set.speedupOver(4, "LRU"),
                     set.results[4].ipc / set.results[3].ipc);
    EXPECT_DOUBLE_EQ(set.speedupOver(0, "LRU"), 1.0);
    EXPECT_THROW(set.speedupOver(0, "Hawkeye"), FatalError);
}

TEST(ReportTest, JsonShapeAndErrorEscaping)
{
    const auto tr = trace::makeSuiteTrace(4, 60000);
    std::vector<RunRequest> batch = {
        RunRequest::singleCore(trace::TraceSpec::borrowed(tr),
                               PolicySpec::byName("LRU")),
        RunRequest::singleCore(trace::TraceSpec::borrowed(tr),
                               PolicySpec::byName("Nope")),
    };
    const auto set = ExperimentRunner(1).run(batch);
    const auto json = toJson(set);
    EXPECT_NE(json.find("\"runs\": ["), std::string::npos);
    EXPECT_NE(json.find("\"summary\": ["), std::string::npos);
    EXPECT_NE(json.find("\"policy\": \"LRU\""), std::string::npos);
    EXPECT_NE(json.find("\"error\": \""), std::string::npos);
    // Timing fields only appear when requested.
    EXPECT_EQ(json.find("wallSeconds"), std::string::npos);
    const auto timed = toJson(set, {/*timing=*/true});
    EXPECT_NE(timed.find("\"jobs\": 1"), std::string::npos);
    EXPECT_NE(timed.find("wallSeconds"), std::string::npos);

    const auto csv = toCsv(set);
    EXPECT_EQ(csv.find("wall_seconds"), std::string::npos);
    EXPECT_NE(csv.find("index,benchmark,policy"), std::string::npos);
    // Header + one line per run.
    std::size_t lines = 0;
    for (const char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, 1 + set.results.size());
}

TEST(ExperimentRunnerTest, EmptyBatchYieldsEmptySet)
{
    const auto set = ExperimentRunner(4).run({});
    EXPECT_TRUE(set.results.empty());
    EXPECT_TRUE(set.policySummaries().empty());
}

TEST(ExperimentRunnerTest, ZeroJobsResolvesToHardware)
{
    EXPECT_GE(ExperimentRunner(0).jobs(), 1u);
    EXPECT_EQ(ExperimentRunner(3).jobs(), 3u);
}

} // namespace
} // namespace mrp::runner
