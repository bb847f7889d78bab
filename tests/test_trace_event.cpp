/**
 * @file
 * Conformance of every Chrome trace_event document the simulator
 * writes: the writer's own byte contract (envelope, exact integer
 * timestamps), then one document from each producer — a run's
 * telemetry, runner::toTraceJson over runs carrying telemetry *and*
 * profiles, and the fleet collector's merged timeline — parsed back
 * and checked event by event: every event names name/ph/pid/tid,
 * complete events carry ts/dur, instant events a ts, and metadata
 * events args.name.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "obs/fleet_collector.hpp"
#include "runner/experiment_runner.hpp"
#include "runner/report.hpp"
#include "telemetry/export.hpp"
#include "trace/spec.hpp"
#include "util/json_reader.hpp"
#include "util/trace_event.hpp"

namespace mrp {
namespace {

using Type = json::Value::Type;

/** Parse @p doc and check every event; returns the events. */
std::vector<json::Value>
conformingEvents(const std::string& doc)
{
    const json::Value v = json::parseJson(doc, "trace document");
    EXPECT_EQ(v.str("displayTimeUnit", "document"), "ms");
    const auto& events =
        v.require("traceEvents", Type::Array, "document").array;
    for (const auto& e : events) {
        const std::string what = "event";
        e.require("name", Type::String, what);
        e.require("pid", Type::Number, what);
        e.require("tid", Type::Number, what);
        const std::string& ph = e.str("ph", what);
        if (ph == "X") {
            e.require("ts", Type::Number, what);
            EXPECT_GE(e.real("dur", what), 0.0);
        } else if (ph == "i") {
            e.require("ts", Type::Number, what);
            EXPECT_EQ(e.str("s", what), "t");
        } else if (ph == "M") {
            e.require("args", Type::Object, what)
                .require("name", Type::String, "args");
        } else {
            ADD_FAILURE() << "unexpected phase '" << ph << "'";
        }
    }
    return events;
}

std::map<std::string, int>
countByPhase(const std::vector<json::Value>& events)
{
    std::map<std::string, int> n;
    for (const auto& e : events)
        ++n[e.str("ph", "event")];
    return n;
}

TEST(TraceEventWriterTest, EmptyDocumentIsTheBareEnvelope)
{
    EXPECT_EQ(trace_event::document({}),
              "{\"traceEvents\": [\n\n], \"displayTimeUnit\": \"ms\"}\n");
    EXPECT_TRUE(conformingEvents(trace_event::document({})).empty());
}

TEST(TraceEventWriterTest, IntegerTimesPrintExactly)
{
    const std::string e = trace_event::complete(
        "llc", "mrp", 0, 1, std::uint64_t{1000000},
        std::uint64_t{18446744073709551615ull}, trace_event::Object());
    EXPECT_NE(e.find("\"ts\": 1000000,"), std::string::npos) << e;
    EXPECT_NE(e.find("\"dur\": 18446744073709551615,"),
              std::string::npos)
        << e;
    const std::string d = trace_event::instant(
        "hb", "lease", 1, 0, 0.5, trace_event::Object().add("k", true));
    EXPECT_EQ(d, "{\"name\": \"hb\", \"cat\": \"lease\", \"ph\": \"i\", "
                 "\"s\": \"t\", \"pid\": 1, \"tid\": 0, \"ts\": 0.5, "
                 "\"args\": {\"k\": true}}");
}

/** Two profiled, telemetry-enabled runs. */
runner::RunSet
profiledTelemetryRuns()
{
    sim::SingleCoreConfig cfg;
    cfg.telemetry.enabled = true;
    cfg.telemetry.epochAccesses = 2000;
    std::vector<runner::RunRequest> batch;
    for (const char* policy : {"LRU", "MPPPB"})
        batch.push_back(runner::RunRequest::singleCore(
            trace::TraceSpec::suite(4, 60000),
            runner::PolicySpec::byName(policy), cfg));
    runner::RunnerOptions opts;
    opts.profile = true;
    return runner::ExperimentRunner(1).run(batch, opts);
}

TEST(TraceEventConformanceTest, TelemetryDocument)
{
    const auto set = profiledTelemetryRuns();
    ASSERT_TRUE(set.results[0].ok()) << set.results[0].error;
    ASSERT_NE(set.results[0].telemetry, nullptr);
    const auto events = conformingEvents(trace_event::document(
        telemetry::traceEvents(*set.results[0].telemetry, 3, "run")));
    const auto n = countByPhase(events);
    EXPECT_GE(n.at("M"), 2); // the process and at least one component
    EXPECT_GT(n.at("X"), 0);
    for (const auto& e : events)
        EXPECT_EQ(e.integer("pid", "event"), 3u);
}

TEST(TraceEventConformanceTest, RunnerDocumentWithProfiles)
{
    const auto set = profiledTelemetryRuns();
    for (const auto& r : set.results) {
        ASSERT_TRUE(r.ok()) << r.error;
        ASSERT_NE(r.telemetry, nullptr);
        ASSERT_NE(r.profile, nullptr);
    }
    const auto events = conformingEvents(runner::toTraceJson(set));
    int prof_processes = 0, phases = 0;
    for (const auto& e : events) {
        const std::string& ph = e.str("ph", "event");
        const auto pid = e.integer("pid", "event");
        if (ph == "M" && pid >= 10000) {
            EXPECT_EQ(e.require("args", Type::Object, "event")
                          .str("name", "args")
                          .rfind("prof:", 0),
                      0u);
            ++prof_processes;
        }
        if (ph == "X" && pid >= 10000) {
            EXPECT_EQ(e.str("cat", "event"), "phase");
            const auto& args = e.require("args", Type::Object, "event");
            EXPECT_GE(args.integer("count", "args"), 1u);
            EXPECT_GE(args.real("exclusiveSeconds", "args"), 0.0);
            ++phases;
        }
    }
    EXPECT_EQ(prof_processes, 2);
    EXPECT_GT(phases, 2);
}

TEST(TraceEventConformanceTest, FleetDocument)
{
    double now = 0.0;
    obs::FleetConfig cfg;
    cfg.clock = [&now] { return now; };
    obs::FleetCollector col(cfg);
    const std::uint64_t batch = col.batchStarted("conformance");
    const std::uint64_t span_a =
        obs::deriveSpanId(col.traceId(), batch, 1, 1);
    const std::uint64_t span_b =
        obs::deriveSpanId(col.traceId(), batch, 2, 1);
    col.workerStarted(0, 11);
    col.workerStarted(1, 12);
    now = 0.001, col.leaseGranted(0, 1, span_a, 1, "a/LRU");
    now = 0.002, col.leaseGranted(1, 2, span_b, 1, "b/LRU");
    now = 0.003, col.heartbeat(0, span_a);
    obs::WorkerRunObs o;
    o.label = "a/LRU";
    o.phases = prof::PhaseStat{"run", 1, 0.004, 0.001, {}};
    o.phases->children.push_back({"simulate", 1, 0.003, 0.003, {}});
    col.workerObs(0, span_a, std::move(o));
    now = 0.006, col.spanClosed(0, span_a, "ok");
    // span_b is never closed: it is drawn as an "open" lease.

    const auto n = countByPhase(conformingEvents(col.traceJson()));
    EXPECT_EQ(n.at("M"), 6); // per worker: process, lease, phases
    EXPECT_EQ(n.at("X"), 4); // two leases, two phases
    EXPECT_EQ(n.at("i"), 1); // the heartbeat
}

} // namespace
} // namespace mrp
