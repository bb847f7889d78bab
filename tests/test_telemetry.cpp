/**
 * @file
 * Unit tests for the telemetry subsystem: metric registration and
 * kind checking, histogram bucket-boundary behaviour, lazy gauge
 * probes, epoch sessions, the reuse-distance tracker, the metric
 * exporters, and the LevelStats self-consistency predicate.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "stats/level_stats.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/session.hpp"
#include "util/logging.hpp"
#include "util/trace_event.hpp"

namespace mrp::telemetry {
namespace {

// ---------------------------------------------------------------- //
// MetricsRegistry

TEST(MetricsRegistryTest, ReRegistrationReturnsSameMetric)
{
    MetricsRegistry reg;
    Counter& a = reg.counter("x.count");
    a.add(3);
    Counter& b = reg.counter("x.count");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(b.value(), 3u);

    Histogram& h1 = reg.histogram("x.hist", {0, 10});
    Histogram& h2 = reg.histogram("x.hist", {0, 10});
    EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistryTest, KindMismatchIsFatal)
{
    MetricsRegistry reg;
    reg.counter("x");
    EXPECT_THROW(reg.gauge("x"), FatalError);
    EXPECT_THROW(reg.histogram("x", {0, 1}), FatalError);
}

TEST(MetricsRegistryTest, SnapshotIsNameSorted)
{
    MetricsRegistry reg;
    reg.counter("zeta");
    reg.counter("alpha");
    reg.gauge("mid");
    const Snapshot s = reg.snapshot();
    ASSERT_EQ(s.metrics.size(), 3u);
    EXPECT_EQ(s.metrics[0].name, "alpha");
    EXPECT_EQ(s.metrics[1].name, "mid");
    EXPECT_EQ(s.metrics[2].name, "zeta");
    EXPECT_EQ(s.find("mid"), &s.metrics[1]);
    EXPECT_EQ(s.find("missing"), nullptr);
}

TEST(MetricsRegistryTest, GaugeFnEvaluatedAtSnapshotTime)
{
    MetricsRegistry reg;
    double state = 1.0;
    reg.gaugeFn("probe", [&state] { return state; });
    EXPECT_EQ(reg.snapshot().find("probe")->gauge, 1.0);
    state = 42.5;
    EXPECT_EQ(reg.snapshot().find("probe")->gauge, 42.5);
}

// ---------------------------------------------------------------- //
// Histogram bucket boundaries

TEST(HistogramTest, BucketBoundaryEdgeCases)
{
    Histogram h({0, 4, 8});
    h.record(-5); // below the first bound -> bucket 0
    h.record(0);  // exactly on bound 0   -> bucket 0
    h.record(1);  // just above bound 0   -> bucket 1
    h.record(4);  // exactly on bound 4   -> bucket 1
    h.record(8);  // exactly on the last bound -> bucket 2
    h.record(9);  // above the last bound -> overflow
    EXPECT_EQ(h.bucketCount(0), 2u);
    EXPECT_EQ(h.bucketCount(1), 2u);
    EXPECT_EQ(h.bucketCount(2), 1u);
    EXPECT_EQ(h.overflow(), 1u);
    EXPECT_EQ(h.total(), 6u);
    EXPECT_EQ(h.sum(), -5 + 0 + 1 + 4 + 8 + 9);
}

TEST(HistogramTest, BoundsMustBeStrictlyAscendingAndNonEmpty)
{
    EXPECT_THROW(Histogram({}), FatalError);
    EXPECT_THROW(Histogram({1, 1}), FatalError);
    EXPECT_THROW(Histogram({2, 1}), FatalError);
}

TEST(HistogramTest, PowerOfTwoBoundsLadder)
{
    const auto b = powerOfTwoBounds(3);
    EXPECT_EQ(b, (std::vector<std::int64_t>{0, 1, 2, 4, 8}));
}

// ---------------------------------------------------------------- //
// Session epochs

TEST(SessionTest, ZeroEpochIntervalIsFatal)
{
    TelemetryConfig cfg;
    cfg.epochAccesses = 0;
    EXPECT_THROW(Session s(cfg), FatalError);
}

TEST(SessionTest, EpochsCloseOnBoundariesPlusTrailingPartial)
{
    TelemetryConfig cfg;
    cfg.epochAccesses = 10;
    Session s(cfg);
    for (int i = 0; i < 25; ++i)
        s.tick();
    const auto t = s.finish();
    EXPECT_EQ(t->accesses, 25u);
    ASSERT_EQ(t->epochs.size(), 3u); // 10, 20, trailing 25
    EXPECT_EQ(t->epochs[0].accesses, 10u);
    EXPECT_EQ(t->epochs[1].accesses, 20u);
    EXPECT_EQ(t->epochs[2].accesses, 25u);
    EXPECT_EQ(t->epochs[2].index, 2u);
}

TEST(SessionTest, ExactBoundaryRunHasNoTrailingEpoch)
{
    TelemetryConfig cfg;
    cfg.epochAccesses = 5;
    Session s(cfg);
    for (int i = 0; i < 10; ++i)
        s.tick();
    EXPECT_EQ(s.finish()->epochs.size(), 2u);
}

TEST(SessionTest, ShortRunStillGetsOneEpoch)
{
    TelemetryConfig cfg; // default interval 100000
    Session s(cfg);
    s.tick();
    s.tick();
    const auto t = s.finish();
    ASSERT_EQ(t->epochs.size(), 1u);
    EXPECT_EQ(t->epochs[0].accesses, 2u);
}

// ---------------------------------------------------------------- //
// ReuseDistanceTracker

TEST(ReuseDistanceTest, ColdAndReuseSplitExactly)
{
    MetricsRegistry reg;
    ReuseDistanceTracker tracker(reg);
    // A B A: two cold touches, one reuse with one intervening access.
    tracker.observe(0xA);
    tracker.observe(0xB);
    tracker.observe(0xA);
    const Snapshot s = reg.snapshot();
    const auto* cold = s.find("llc.reuse.cold_accesses");
    const auto* dist = s.find("llc.reuse_distance");
    ASSERT_NE(cold, nullptr);
    ASSERT_NE(dist, nullptr);
    EXPECT_EQ(cold->counter, 2u);
    EXPECT_EQ(dist->histogram.total, 1u);
    EXPECT_EQ(dist->histogram.sum, 1); // exactly one block in between
    // Immediate re-reference has distance zero.
    tracker.observe(0xA);
    EXPECT_EQ(reg.snapshot().find("llc.reuse_distance")->histogram.sum,
              1);
}

// ---------------------------------------------------------------- //
// Exporters

std::shared_ptr<const RunTelemetry>
sampleTelemetry()
{
    TelemetryConfig cfg;
    cfg.epochAccesses = 2;
    auto s = std::make_unique<Session>(cfg);
    Counter& events = s->registry().counter("a.events");
    events.add(3);
    s->tick();
    s->tick(); // epoch 0 closes at 2 accesses
    events.add(2);
    s->tick(); // trailing partial epoch at 3 accesses
    return s->finish();
}

TEST(ExportTest, MetricsJsonShape)
{
    const auto t = sampleTelemetry();
    const std::string j = metricsJson(*t, "");
    EXPECT_NE(j.find("\"accesses\": 3"), std::string::npos);
    EXPECT_NE(j.find("\"epochAccesses\": 2"), std::string::npos);
    EXPECT_NE(j.find("\"epochs\": 2"), std::string::npos);
    EXPECT_NE(j.find("\"a.events\": 5"), std::string::npos);
    EXPECT_NE(j.find("\"llc.reuse_distance\": {\"bounds\": "),
              std::string::npos);
}

TEST(ExportTest, MetricsCsvRowsFlattenHistograms)
{
    const auto t = sampleTelemetry();
    const auto rows = metricsCsvRows(*t);
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(rows.front(), "a.events,5");
    bool saw_le = false, saw_total = false, saw_overflow = false;
    for (const auto& r : rows) {
        saw_le = saw_le ||
                 r.rfind("llc.reuse_distance.le.0,", 0) == 0;
        saw_total = saw_total ||
                    r.rfind("llc.reuse_distance.total,", 0) == 0;
        saw_overflow =
            saw_overflow ||
            r.rfind("llc.reuse_distance.overflow,", 0) == 0;
    }
    EXPECT_TRUE(saw_le);
    EXPECT_TRUE(saw_total);
    EXPECT_TRUE(saw_overflow);
}

TEST(ExportTest, TraceEventsMatchGoldenFile)
{
    const auto t = sampleTelemetry();
    const std::string got =
        trace_event::document(traceEvents(*t, 0, "proc"));

    const auto golden_path =
        std::filesystem::path(__FILE__).parent_path() / "golden" /
        "trace_event.json";
    std::ifstream f(golden_path);
    ASSERT_TRUE(f) << "missing golden file: " << golden_path;
    std::ostringstream want;
    want << f.rdbuf();
    EXPECT_EQ(got, want.str());
}

// ---------------------------------------------------------------- //
// LevelStats self-consistency

TEST(LevelStatsConsistencyTest, AcceptsBalancedCounters)
{
    stats::LevelStats s;
    EXPECT_TRUE(s.consistent()); // all-zero is trivially consistent
    s.demandAccesses = 10;
    s.demandHits = 7;
    s.demandMisses = 3;
    s.writebackAccesses = 4;
    s.writebackHits = 4;
    s.prefetchAccesses = 5; // fills without a hit/miss split are fine
    s.evictions = 2;
    s.dirtyEvictions = 2;
    s.bypasses = 1;
    EXPECT_TRUE(s.consistent());
}

TEST(LevelStatsConsistencyTest, RejectsUnbalancedCounters)
{
    stats::LevelStats s;
    s.demandAccesses = 10;
    s.demandHits = 7;
    s.demandMisses = 2; // 7 + 2 != 10
    EXPECT_FALSE(s.consistent());

    stats::LevelStats d;
    d.evictions = 1;
    d.dirtyEvictions = 2; // dirty > total
    EXPECT_FALSE(d.consistent());

    stats::LevelStats b;
    b.bypasses = 1; // bypass with no miss anywhere
    EXPECT_FALSE(b.consistent());

    stats::LevelStats p;
    p.prefetchAccesses = 1;
    p.prefetchHits = 1;
    p.prefetchMisses = 1; // split exceeds accesses
    EXPECT_FALSE(p.consistent());
}

} // namespace
} // namespace mrp::telemetry
