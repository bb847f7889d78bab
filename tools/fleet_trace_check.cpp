/**
 * @file
 * CI checker for fleet observability artifacts: validates the merged
 * Chrome trace_event document and the fleet metrics document that
 * `mrp_broker_cli --fleet-trace-out/--fleet-metrics-out` emit.
 *
 * Trace checks: the document parses, has at least --min-workers
 * distinct worker processes (process_name metadata), every lease span
 * carries jobId/span/outcome args and belongs to a named process, and
 * at least one lease closed "ok". With --require-phases at least one
 * nested phase event must be present (workers shipped OBS payloads).
 *
 * Metrics checks: the document is mrp-fleet-metrics-v1 and, for every
 * mirrored queue counter, the per-worker sums in "fleet" equal the
 * broker registry totals in "broker" — the counter mirroring contract
 * of obs::FleetCollector.
 *
 * Usage:
 *   fleet_trace_check --trace FILE --metrics FILE
 *                     [--min-workers N] [--require-phases]
 *
 * Exit status: 0 = all checks pass, 1 = a check failed,
 * 2 = usage/parse error.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "util/json_reader.hpp"
#include "util/logging.hpp"
#include "util/parse_number.hpp"

namespace {

using namespace mrp;

int
usage()
{
    std::fprintf(stderr,
                 "usage: fleet_trace_check --trace FILE "
                 "--metrics FILE\n"
                 "                         [--min-workers N] "
                 "[--require-phases]\n");
    return 2;
}

std::string
slurp(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    fatalIf(!is, ErrorCode::Io, "cannot open for reading: " + path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

int g_failures = 0;

void
check(bool ok, const std::string& what)
{
    if (ok)
        return;
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
}

/** The mirrored counters whose per-worker sums must equal the broker
 * registry totals. */
const char* const kMirroredCounters[] = {
    "queue.lease_expired",
    "queue.requeue_exhausted",
    "queue.requeued",
    "queue.worker_restarts",
};

void
checkTrace(const std::string& path, unsigned min_workers,
           bool require_phases)
{
    using Type = json::Value::Type;
    const auto doc = json::parseJson(slurp(path), path);
    const auto& events =
        doc.require("traceEvents", Type::Array, path).array;

    std::set<std::uint64_t> worker_pids;
    std::size_t leases = 0, ok_leases = 0, phases = 0, beats = 0;
    for (const auto& e : events) {
        fatalIf(!e.isObject(), ErrorCode::CorruptInput,
                path + ": trace event is not an object");
        const std::string& ph = e.str("ph", path);
        if (ph == "M") {
            if (e.str("name", path) != "process_name")
                continue;
            const auto& args = e.require("args", Type::Object, path);
            const std::string& name = args.str("name", path);
            if (name.rfind("worker", 0) == 0)
                worker_pids.insert(e.integer("pid", path));
            continue;
        }
        if (ph == "i") {
            ++beats;
            continue;
        }
        if (ph != "X")
            continue;
        const std::string& cat = e.str("cat", path);
        if (cat == "phase") {
            ++phases;
            continue;
        }
        if (cat != "lease")
            continue;
        ++leases;
        const auto& args = e.require("args", Type::Object, path);
        args.integer("jobId", path);
        args.require("span", Type::String, path);
        const std::string& outcome = args.str("outcome", path);
        if (outcome == "ok")
            ++ok_leases;
        check(worker_pids.count(e.integer("pid", path)) != 0,
              path + ": lease span on a pid with no process_name");
    }

    check(worker_pids.size() >= min_workers,
          path + ": expected >= " + std::to_string(min_workers) +
              " worker process(es), found " +
              std::to_string(worker_pids.size()));
    check(leases > 0, path + ": no lease spans");
    check(ok_leases > 0, path + ": no lease span closed \"ok\"");
    if (require_phases)
        check(phases > 0,
              path + ": no phase events (workers shipped no OBS "
                     "payloads)");
    std::fprintf(stderr,
                 "%s: %zu worker(s), %zu lease span(s) (%zu ok), "
                 "%zu heartbeat(s), %zu phase event(s)\n",
                 path.c_str(), worker_pids.size(), leases, ok_leases,
                 beats, phases);
}

void
checkMetrics(const std::string& path)
{
    using Type = json::Value::Type;
    const auto doc = json::parseJson(slurp(path), path);
    check(doc.str("doc", path) == "mrp-fleet-metrics-v1",
          path + ": not a mrp-fleet-metrics-v1 document");

    const auto fleet = telemetry::snapshotFromJson(
        doc.require("fleet", Type::Object, path), path + " fleet");
    const auto* broker_v = doc.get("broker");
    fatalIf(broker_v == nullptr, ErrorCode::CorruptInput,
            path + ": no \"broker\" snapshot (run mrp_broker_cli "
                   "with --fleet-metrics-out)");
    const auto broker =
        telemetry::snapshotFromJson(*broker_v, path + " broker");

    for (const char* leaf : kMirroredCounters) {
        std::uint64_t fleet_sum = 0;
        for (const auto& m : fleet.metrics)
            if (m.name.rfind(std::string(leaf) + ".worker", 0) == 0)
                fleet_sum += m.counter;
        const auto* b = broker.find(leaf);
        const std::uint64_t broker_total = b ? b->counter : 0;
        check(fleet_sum == broker_total,
              path + ": " + leaf + " per-worker sum " +
                  std::to_string(fleet_sum) +
                  " != broker total " +
                  std::to_string(broker_total));
        std::fprintf(stderr, "%s: %s sum %llu == broker %llu\n",
                     path.c_str(), leaf,
                     static_cast<unsigned long long>(fleet_sum),
                     static_cast<unsigned long long>(broker_total));
    }
}

int
run(int argc, char** argv)
{
    std::string trace_path;
    std::string metrics_path;
    unsigned min_workers = 1;
    bool require_phases = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            fatalIf(i + 1 >= argc, ErrorCode::Config,
                    "missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--metrics") {
            metrics_path = next();
        } else if (arg == "--min-workers") {
            min_workers = flagInteger<unsigned>(arg, next());
        } else if (arg == "--require-phases") {
            require_phases = true;
        } else {
            return usage();
        }
    }
    if (trace_path.empty() || metrics_path.empty())
        return usage();

    checkTrace(trace_path, min_workers, require_phases);
    checkMetrics(metrics_path);

    if (g_failures != 0) {
        std::fprintf(stderr, "%d check(s) failed\n", g_failures);
        return 1;
    }
    std::fprintf(stderr, "all fleet observability checks passed\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return guardedMain("fleet_trace_check", run, argc, argv);
}
