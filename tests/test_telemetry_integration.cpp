/**
 * @file
 * End-to-end telemetry tests: a telemetry-enabled run must (a) not
 * perturb the simulation, (b) produce metrics that reconcile exactly
 * with the driver's LevelStats-derived result fields, and (c) flow
 * through the parallel runner into the JSON/CSV/metrics/trace
 * exports deterministically.
 */

#include <gtest/gtest.h>

#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "sim/multi_core.hpp"
#include "sim/single_core.hpp"
#include "telemetry/session.hpp"
#include "trace/source.hpp"
#include "trace/spec.hpp"
#include "trace/workloads.hpp"

namespace mrp {
namespace {

const telemetry::MetricSnapshot&
metric(const telemetry::RunTelemetry& t, const std::string& name)
{
    const auto* m = t.finalSnapshot.find(name);
    EXPECT_NE(m, nullptr) << "missing metric " << name;
    static const telemetry::MetricSnapshot empty{};
    return m ? *m : empty;
}

sim::SingleCoreConfig
telemetryConfig(std::uint64_t epoch = 10000)
{
    sim::SingleCoreConfig cfg;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epochAccesses = epoch;
    return cfg;
}

TEST(TelemetryIntegrationTest, DisabledRunCarriesNoTelemetry)
{
    const auto tr = trace::makeSuiteTrace(4, 120000); // gups.fit
    trace::MaterializedTraceSource src(tr);
    const auto r =
        sim::runSingleCore(src, sim::PolicyRegistry::make("MPPPB"), {});
    EXPECT_EQ(r.telemetry, nullptr);
}

TEST(TelemetryIntegrationTest, TelemetryDoesNotPerturbTheRun)
{
    const auto tr = trace::makeSuiteTrace(4, 120000);
    const auto factory = sim::PolicyRegistry::make("MPPPB");
    // One source serves both runs: the driver rewinds at entry.
    trace::MaterializedTraceSource src(tr);
    const auto plain = sim::runSingleCore(src, factory, {});
    const auto instrumented =
        sim::runSingleCore(src, factory, telemetryConfig());
    EXPECT_EQ(plain.ipc, instrumented.ipc);
    EXPECT_EQ(plain.mpki, instrumented.mpki);
    EXPECT_EQ(plain.llcDemandAccesses,
              instrumented.llcDemandAccesses);
    EXPECT_EQ(plain.llcDemandMisses, instrumented.llcDemandMisses);
    EXPECT_EQ(plain.llcBypasses, instrumented.llcBypasses);
    ASSERT_NE(instrumented.telemetry, nullptr);
}

TEST(TelemetryIntegrationTest, MetricsReconcileWithLevelStats)
{
    const auto tr = trace::makeSuiteTrace(0, 150000); // scan.a
    trace::MaterializedTraceSource src(tr);
    const auto r = sim::runSingleCore(
        src, sim::PolicyRegistry::make("MPPPB"), telemetryConfig());
    ASSERT_NE(r.telemetry, nullptr);
    const auto& t = *r.telemetry;

    // The llc.* counters mirror the LevelStats-derived result fields.
    EXPECT_EQ(metric(t, "llc.demand_accesses").counter,
              r.llcDemandAccesses);
    EXPECT_EQ(metric(t, "llc.demand_misses").counter,
              r.llcDemandMisses);
    EXPECT_EQ(metric(t, "llc.bypasses").counter, r.llcBypasses);
    EXPECT_EQ(metric(t, "llc.demand_accesses").counter,
              metric(t, "llc.demand_hits").counter +
                  metric(t, "llc.demand_misses").counter);

    // Every observed LLC access is either a reuse or a cold touch.
    const auto& reuse = metric(t, "llc.reuse_distance").histogram;
    const std::uint64_t observed =
        metric(t, "llc.demand_accesses").counter +
        metric(t, "llc.prefetch_accesses").counter +
        metric(t, "llc.writeback_accesses").counter;
    EXPECT_EQ(reuse.total + metric(t, "llc.reuse.cold_accesses").counter,
              observed);
    EXPECT_EQ(t.accesses, observed);
    EXPECT_GE(t.epochs.size(), 1u);

    // MPPPB introspection: per-feature weight histograms, confidence
    // split by hit/miss, placement decision counts.
    unsigned feature_hists = 0;
    for (const auto& m : t.finalSnapshot.metrics)
        if (m.name.rfind("predictor.feature.", 0) == 0 &&
            m.kind == telemetry::MetricSnapshot::Kind::Histogram)
            ++feature_hists;
    EXPECT_EQ(feature_hists, 16u); // Table 1(a) feature count
    const auto& hit = metric(t, "predictor.confidence.hit").histogram;
    const auto& miss =
        metric(t, "predictor.confidence.miss").histogram;
    EXPECT_GT(hit.total + miss.total, 0u);
    const std::uint64_t placements =
        metric(t, "mpppb.placement.pi1").counter +
        metric(t, "mpppb.placement.pi2").counter +
        metric(t, "mpppb.placement.pi3").counter +
        metric(t, "mpppb.placement.mru").counter;
    EXPECT_GT(placements, 0u);
    EXPECT_LE(placements, metric(t, "llc.fills").counter);
}

TEST(TelemetryIntegrationTest, MultiCoreRunCarriesTelemetry)
{
    sim::MultiCoreConfig cfg;
    cfg.warmupInstructions = 300000;
    cfg.measureCycles = 120000;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epochAccesses = 10000;
    const auto t0 = trace::makeSuiteTrace(7, 200000);
    const auto t1 = trace::makeSuiteTrace(9, 200000);
    const auto t2 = trace::makeSuiteTrace(14, 200000);
    const auto t3 = trace::makeSuiteTrace(25, 200000);
    trace::MaterializedTraceSource s0(t0), s1(t1), s2(t2), s3(t3);
    const auto r = sim::runMultiCore(
        {&s0, &s1, &s2, &s3}, sim::PolicyRegistry::make("MPPPB-MC"), cfg);
    ASSERT_NE(r.telemetry, nullptr);
    const auto& t = *r.telemetry;
    EXPECT_EQ(metric(t, "llc.demand_misses").counter,
              r.llcDemandMisses);
    const auto& reuse = metric(t, "llc.reuse_distance").histogram;
    EXPECT_EQ(reuse.total + metric(t, "llc.reuse.cold_accesses").counter,
              t.accesses);
}

TEST(TelemetryIntegrationTest, RunnerReportsEmbedMetrics)
{
    const auto tr = trace::makeSuiteTrace(0, 150000);
    std::vector<runner::RunRequest> batch;
    batch.push_back(runner::RunRequest::singleCore(
        trace::TraceSpec::borrowed(tr),
        runner::PolicySpec::byName("LRU"), telemetryConfig()));
    batch.push_back(runner::RunRequest::singleCore(
        trace::TraceSpec::borrowed(tr),
        runner::PolicySpec::byName("MPPPB"), telemetryConfig()));

    const runner::ExperimentRunner pool(2);
    const auto set = pool.run(batch);
    ASSERT_EQ(set.results.size(), 2u);
    ASSERT_NE(set.results[0].telemetry, nullptr);
    ASSERT_NE(set.results[1].telemetry, nullptr);

    const std::string json = runner::toJson(set);
    EXPECT_NE(json.find("\"metrics\": {"), std::string::npos);
    EXPECT_NE(json.find("\"llc.reuse_distance\""), std::string::npos);
    const std::string csv = runner::toCsv(set);
    EXPECT_NE(csv.find("# metrics\nindex,metric,value\n"),
              std::string::npos);
    EXPECT_NE(csv.find("1,mpppb.placement.pi1,"), std::string::npos);

    const std::string metrics = runner::toMetricsJson(set);
    EXPECT_NE(metrics.find("\"policy\": \"MPPPB\""),
              std::string::npos);
    const std::string trace_doc = runner::toTraceJson(set);
    EXPECT_NE(trace_doc.find("\"traceEvents\": ["), std::string::npos);
    EXPECT_NE(trace_doc.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(trace_doc.find("\"pid\": 1"), std::string::npos);

    // Determinism: a single-worker execution of the same batch must
    // serialize to the same bytes, telemetry included.
    const runner::ExperimentRunner serial(1);
    const auto set1 = serial.run(batch);
    EXPECT_EQ(runner::toJson(set1), json);
    EXPECT_EQ(runner::toCsv(set1), csv);
    EXPECT_EQ(runner::toMetricsJson(set1), metrics);
    EXPECT_EQ(runner::toTraceJson(set1), trace_doc);
}

TEST(TelemetryIntegrationTest, ObserverAndTelemetryAreExclusive)
{
    const auto tr = trace::makeSuiteTrace(4, 120000);
    trace::MaterializedTraceSource src(tr);
    cache::LlcObserver obs;
    EXPECT_THROW(sim::runSingleCore(src, sim::PolicyRegistry::make("LRU"),
                                    telemetryConfig(), &obs),
                 FatalError);
}

} // namespace
} // namespace mrp
