/**
 * @file
 * Distributed sweep driver: the same study mrp_sweep_cli runs, but
 * executed through the crash-tolerant queue broker — jobs are leased
 * from a durable on-disk work queue to mrp_worker processes, so the
 * sweep survives worker kills, hangs, and broker crash/resume.
 *
 * The report is byte-identical to mrp_sweep_cli's for the same study
 * flags, at any --workers count, through any amount of chaos — that
 * equality is the headline determinism check the CI smoke job diffs.
 *
 * Usage:
 *   mrp_broker_cli [shared sweep flags — see sweep_cli_common.hpp]
 *                  [--workers N] [--worker-bin PATH] [--queue FILE]
 *                  [--heartbeat-ms N] [--heartbeat-timeout-ms N]
 *                  [--max-attempts N] [--backoff SECONDS]
 *                  [--restart-budget N] [--worker-arg ARG]...
 *                  [--fault SITE:KIND[:FIRSTHIT[:MAXFIRES]]]...
 *                  [--kill-after-leases N]
 *                  [--abort-after-completions N]
 *                  [--metrics-out FILE]
 *                  [--fleet-trace-out FILE] [--fleet-metrics-out FILE]
 *                  [--straggler-k K]
 *
 * --worker-bin defaults to "mrp_worker" next to this binary. --queue
 * is the durable queue journal: it carries a fingerprint of the exact
 * job set, so reusing one path across different batches is safe (a
 * mismatch starts fresh), and re-running after a crash with the same
 * path replays completed jobs instead of re-simulating them.
 *
 * --fault arms a deterministic fault site in this process AND
 * forwards the same spec to every worker (sites live on both sides of
 * the pipe; each process only fires the sites it visits). --worker-arg
 * forwards a raw extra flag to workers only (e.g. --chaos-wedge).
 * --kill-after-leases / --abort-after-completions are the scripted
 * chaos hooks: SIGKILL the worker granted the Nth lease, and throw
 * (simulating a broker crash) after the Nth completion.
 *
 * --metrics-out writes the broker's queue telemetry (lease expiries,
 * requeues, worker restarts, heartbeat-latency histogram) plus the
 * runner.* batch counters as a metrics JSON document via the
 * standard telemetry export path.
 *
 * --fleet-trace-out / --fleet-metrics-out switch on fleet
 * observability (src/obs): workers ship per-run telemetry snapshots
 * and phase trees over the wire, and the broker-side FleetCollector
 * merges them into one Chrome trace_event timeline (open it in
 * Perfetto or chrome://tracing) and one fleet metrics document with
 * per-worker lease histograms and straggler analytics
 * (--straggler-k sets the MAD threshold, default 3.5). Strictly
 * observation-only: the study report bytes are identical with these
 * flags on or off.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "queue/broker.hpp"
#include "sweep_cli_common.hpp"
#include "telemetry/export.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/session.hpp"
#include "util/fault_injection.hpp"
#include "util/parse_number.hpp"

namespace {

using namespace mrp;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mrp_broker_cli [--workers N] [--worker-bin PATH]\n"
        "       [--queue FILE] [--heartbeat-ms N]\n"
        "       [--heartbeat-timeout-ms N] [--max-attempts N]\n"
        "       [--backoff SECONDS] [--restart-budget N]\n"
        "       [--worker-arg ARG]... [--fault SPEC]...\n"
        "       [--kill-after-leases N] [--abort-after-completions N]\n"
        "       [--metrics-out FILE] [--fleet-trace-out FILE]\n"
        "       [--fleet-metrics-out FILE] [--straggler-k K]\n%s",
        cli::kSweepUsage);
    return 2;
}

/** "dir/of/argv0/mrp_worker", or plain "mrp_worker" (PATH lookup via
 * execvp) when argv[0] has no directory part. */
std::string
defaultWorkerBin(const char* argv0)
{
    const std::string self = argv0;
    const auto slash = self.rfind('/');
    if (slash == std::string::npos)
        return "mrp_worker";
    return self.substr(0, slash + 1) + "mrp_worker";
}

int
run(int argc, char** argv)
{
    cli::SweepCliConfig cfg;
    queue::BrokerConfig bcfg;
    bcfg.workerBin = defaultWorkerBin(argv[0]);
    bcfg.queuePath = "mrp_broker.queue";
    std::string metrics_out;
    std::string fleet_trace_out;
    std::string fleet_metrics_out;
    double straggler_k = 3.5;

    for (int i = 1; i < argc; ++i) {
        if (cli::parseSweepArg(cfg, argc, argv, i))
            continue;
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            fatalIf(i + 1 >= argc, ErrorCode::Config,
                    "missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workers") {
            bcfg.workers = flagInteger<unsigned>(arg, next());
        } else if (arg == "--worker-bin") {
            bcfg.workerBin = next();
        } else if (arg == "--queue") {
            bcfg.queuePath = next();
        } else if (arg == "--heartbeat-ms") {
            bcfg.heartbeatMs = flagInteger<unsigned>(arg, next());
        } else if (arg == "--heartbeat-timeout-ms") {
            bcfg.heartbeatTimeoutMs = flagInteger<unsigned>(arg, next());
        } else if (arg == "--max-attempts") {
            bcfg.maxAttempts = flagInteger<unsigned>(arg, next());
        } else if (arg == "--backoff") {
            bcfg.backoffSeconds = flagDouble(arg, next());
        } else if (arg == "--restart-budget") {
            bcfg.workerRestartBudget = flagInteger<unsigned>(arg, next());
        } else if (arg == "--worker-arg") {
            bcfg.workerArgs.push_back(next());
        } else if (arg == "--fault") {
            // Both sides of the pipe: arm here, forward to workers.
            const std::string spec = next();
            fault::armFromSpec(spec);
            bcfg.workerArgs.push_back("--fault");
            bcfg.workerArgs.push_back(spec);
        } else if (arg == "--kill-after-leases") {
            bcfg.killWorkerAfterLeases =
                flagInteger<std::uint64_t>(arg, next());
        } else if (arg == "--abort-after-completions") {
            bcfg.chaosAbortAfterCompletions =
                flagInteger<std::uint64_t>(arg, next());
        } else if (arg == "--metrics-out") {
            metrics_out = next();
        } else if (arg == "--fleet-trace-out") {
            fleet_trace_out = next();
        } else if (arg == "--fleet-metrics-out") {
            fleet_metrics_out = next();
        } else if (arg == "--straggler-k") {
            straggler_k = flagDouble(arg, next());
        } else {
            return usage();
        }
    }

    telemetry::MetricsRegistry registry;
    bcfg.metrics = &registry;
    std::unique_ptr<obs::FleetCollector> collector;
    if (!fleet_trace_out.empty() || !fleet_metrics_out.empty()) {
        obs::FleetConfig fcfg;
        fcfg.stragglerK = straggler_k;
        collector = std::make_unique<obs::FleetCollector>(fcfg);
        bcfg.collector = collector.get();
    }
    const queue::Broker broker(bcfg);

    const auto setup = cli::buildStudySetup(cfg);
    if (!setup)
        return usage();
    setup->studyConfig.executor = &broker;
    sweep::Study study(setup->space, *setup->strategy,
                       *setup->objective, setup->studyConfig);
    const sweep::StudyResult result = study.run();

    if (!metrics_out.empty()) {
        telemetry::RunTelemetry rt;
        rt.finalSnapshot = registry.snapshot();
        runner::writeFile(metrics_out,
                          telemetry::metricsJson(rt, "") + "\n");
        std::fprintf(stderr, "wrote %s\n", metrics_out.c_str());
    }
    if (collector) {
        if (!fleet_trace_out.empty()) {
            runner::writeFile(fleet_trace_out,
                              collector->traceJson());
            std::fprintf(stderr, "wrote %s\n",
                         fleet_trace_out.c_str());
        }
        if (!fleet_metrics_out.empty()) {
            const telemetry::Snapshot broker_snap =
                registry.snapshot();
            runner::writeFile(
                fleet_metrics_out,
                collector->metricsJson(&broker_snap) + "\n");
            std::fprintf(stderr, "wrote %s\n",
                         fleet_metrics_out.c_str());
        }
        std::fputs(collector->stragglerText().c_str(), stderr);
    }

    cli::maybeWriteMrcProfiles(*setup, cfg);
    return cli::emitStudyReport(study, result, cfg);
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "mrp_broker_cli: %s [%s]\n", e.what(),
                     errorCodeName(e.code()));
        return 2;
    }
}
