/**
 * @file
 * End-to-end telemetry tests: a telemetry-enabled run must (a) not
 * perturb the simulation, (b) produce metrics that reconcile exactly
 * with the driver's LevelStats-derived result fields and with each
 * other on every simulation path, and (c) flow through the parallel
 * runner into the JSON/CSV/metrics/trace exports deterministically and
 * byte-identical to the frozen files in tests/golden/.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

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

/** Main-suite index of benchmark @p name. */
unsigned
suiteIndex(const std::string& name)
{
    const auto names = trace::suiteNames();
    const auto it = std::find(names.begin(), names.end(), name);
    EXPECT_NE(it, names.end()) << "no suite benchmark " << name;
    return static_cast<unsigned>(it - names.begin());
}

/**
 * Compare @p got with tests/golden/@p file; MRP_UPDATE_GOLDEN=1
 * rewrites the file instead.
 */
void
expectMatchesGolden(const std::string& file, const std::string& got)
{
    const auto path =
        std::filesystem::path(__FILE__).parent_path() / "golden" / file;
    if (std::getenv("MRP_UPDATE_GOLDEN") != nullptr) {
        std::ofstream(path, std::ios::binary) << got;
        return;
    }
    std::ifstream f(path, std::ios::binary);
    ASSERT_TRUE(f) << "missing golden file: " << path
                   << " (regenerate with MRP_UPDATE_GOLDEN=1)";
    std::ostringstream want;
    want << f.rdbuf();
    EXPECT_EQ(got, want.str()) << "telemetry export drifted from " << path;
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
    const auto tr = trace::makeSuiteTrace(0, 150000); // compute.small
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

/**
 * Every DRAM read serves an LLC demand miss or a prefetch that missed,
 * and every DRAM write is a dirty LLC victim or a bypassed writeback.
 * Counted over one window, mem.* can therefore never exceed the llc.*
 * events it comes from.
 */
void
expectDramReconciles(const telemetry::RunTelemetry& t)
{
    for (const char* name : {"mem.dram_reads", "mem.dram_writes"})
        EXPECT_EQ(metric(t, name).kind,
                  telemetry::MetricSnapshot::Kind::Counter)
            << name;
    EXPECT_LE(metric(t, "mem.dram_reads").counter,
              metric(t, "llc.demand_misses").counter +
                  metric(t, "llc.prefetch_accesses").counter);
    EXPECT_LE(metric(t, "mem.dram_writes").counter,
              metric(t, "llc.dirty_evictions").counter +
                  metric(t, "llc.writeback_accesses").counter);
}

TEST(TelemetryIntegrationTest, DramTrafficReconcilesWithLlcOnEveryPath)
{
    const auto tr = trace::makeSuiteTrace(suiteIndex("scan.a"), 150000);
    trace::MaterializedTraceSource src(tr);
    {
        SCOPED_TRACE("single-core");
        const auto r = sim::runSingleCore(
            src, sim::PolicyRegistry::make("MPPPB"), telemetryConfig());
        ASSERT_NE(r.telemetry, nullptr);
        expectDramReconciles(*r.telemetry);
    }
    {
        SCOPED_TRACE("MIN measured pass");
        const auto r = sim::runSingleCoreMin(src, telemetryConfig());
        ASSERT_NE(r.telemetry, nullptr);
        expectDramReconciles(*r.telemetry);
    }

    const auto a = trace::makeSuiteTrace(suiteIndex("gups.2x"), 120000);
    const auto b = trace::makeSuiteTrace(suiteIndex("thrash.2x"), 120000);
    sim::MultiCoreConfig cfg;
    cfg.hierarchy.llcBytes = 256 * 1024;
    cfg.warmupInstructions = 40000;
    cfg.measureCycles = 60000;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epochAccesses = 10000;
    const auto mix = [&](const char* what) {
        SCOPED_TRACE(what);
        trace::MaterializedTraceSource sa(a), sb(b);
        const auto r = sim::runMultiCore(
            std::vector<trace::TraceSource*>{&sa, &sb},
            sim::PolicyRegistry::make("MPPPB-MC"), cfg);
        ASSERT_NE(r.telemetry, nullptr);
        expectDramReconciles(*r.telemetry);
    };
    mix("shared mix");
    cfg.tenancy.tenants = {{.ways = 10}, {.ways = 6}};
    mix("fixed partition");
    cfg.tenancy.tenants[0].sloMpki = 0.05; // hard to meet: QoS resizes
    cfg.tenancy.qos.enabled = true;
    cfg.tenancy.qos.epochInstructions = 10000;
    cfg.tenancy.qos.breachEpochs = 1;
    mix("QoS mix");
}

/**
 * The metrics and trace_event exports of a single-core and a shared
 * 4-core run, frozen byte for byte. The short epoch puts many
 * snapshots inside LLC accesses, so the golden trace also pins when
 * each counter moves within an access (a fill is counted after the
 * miss's observer call, not before).
 */
TEST(TelemetryIntegrationTest, ExportsMatchGoldenFiles)
{
    std::vector<runner::RunRequest> batch;
    batch.push_back(runner::RunRequest::singleCore(
        trace::TraceSpec::suite(suiteIndex("scan.a"), 400000),
        runner::PolicySpec::byName("MPPPB"), telemetryConfig(997)));
    sim::MultiCoreConfig mc;
    mc.hierarchy.llcBytes = 512 * 1024;
    mc.warmupInstructions = 100000;
    mc.measureCycles = 40000;
    mc.telemetry.enabled = true;
    mc.telemetry.epochAccesses = 997;
    batch.push_back(runner::RunRequest::multiCore(
        std::vector<trace::TraceSpec>{
            trace::TraceSpec::suite(suiteIndex("thrash.2x"), 100000),
         trace::TraceSpec::suite(suiteIndex("scan.a"), 100000),
         trace::TraceSpec::suite(suiteIndex("mixpc.hi"), 100000),
         trace::TraceSpec::suite(suiteIndex("gups.2x"), 100000)},
        runner::PolicySpec::byName("MPPPB-MC"), mc));

    const auto set = runner::ExperimentRunner(2).run(batch);
    ASSERT_EQ(set.results.size(), 2u);
    ASSERT_TRUE(set.results[0].ok() && set.results[1].ok());
    expectMatchesGolden("telemetry_metrics.json",
                        runner::toMetricsJson(set));
    expectMatchesGolden("telemetry_trace.json", runner::toTraceJson(set));
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
