/**
 * @file
 * Queue worker: one process of the distributed sweep service.
 *
 * Speaks the line protocol of queue/wire.hpp on stdin/stdout: sends
 * HELLO (pid + schema), then for each JOB line executes the request
 * with the single-run runner path — identical simulation code to the
 * in-process ExperimentRunner, which is what makes distributed
 * results byte-identical — while a background thread emits HB
 * heartbeats, and answers with a RESULT line carrying the checkpoint
 * resultJson bytes. Exits on SHUTDOWN or stdin EOF. All simulation
 * failures are relayed as typed error results, never as a crash.
 *
 * Observability (schema v2): with --ship-obs the worker enables
 * telemetry and profiling locally for each run and ships the final
 * registry snapshot plus the mrp_prof phase tree as an OBS line
 * directly before the RESULT of the same lease. The RESULT bytes are
 * untouched (telemetry/profiling are excluded from resultJson by the
 * checkpoint contract), so study reports stay byte-identical with
 * shipping on or off. A payload whose serialization exceeds
 * --obs-max-bytes is replaced by a truncated=true stub of scalars.
 *
 * Standalone dumps (parity with mrp_sim_cli): --metrics-out writes
 * one mrp-worker-metrics-v1 document at exit — the merge of every
 * executed run's telemetry snapshot plus worker.jobs_* counters —
 * and --prof-out one mrp-worker-prof-v1 document holding each run's
 * phase tree. Both imply the corresponding per-run collection even
 * without --ship-obs.
 *
 * Usage (normally spawned by the broker, attachable by hand):
 *   mrp_worker [--heartbeat-ms N] [--timeout SECONDS]
 *              [--ship-obs] [--obs-max-bytes N]
 *              [--metrics-out PATH] [--prof-out PATH]
 *              [--fault SITE:KIND[:FIRSTHIT[:MAXFIRES]]]...
 *              [--chaos-wedge SUBSTR[:MARKERFILE]]
 *
 * --chaos-wedge (tests/CI only): on receiving a job whose label
 * contains SUBSTR, raise(SIGSTOP) — the process freezes, heartbeats
 * stop, and the broker's lease expiry machinery must recover. With a
 * MARKERFILE the wedge is one-shot (the file records it fired), so
 * the requeued attempt succeeds; without one, every attempt wedges
 * and the job must exhaust its lease budget.
 */

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "obs/payload.hpp"
#include "prof/export.hpp"
#include "queue/wire.hpp"
#include "runner/checkpoint.hpp"
#include "runner/experiment_runner.hpp"
#include "telemetry/export.hpp"
#include "util/fault_injection.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"
#include "util/parse_number.hpp"

namespace {

using namespace mrp;

std::mutex g_out_mutex;

void
emitLine(const std::string& line)
{
    std::lock_guard<std::mutex> lock(g_out_mutex);
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fputc('\n', stdout);
    std::fflush(stdout);
}

bool
fileExists(const std::string& path)
{
    std::ifstream f(path);
    return static_cast<bool>(f);
}

void
writeFile(const std::string& path, const std::string& text)
{
    std::FILE* f = std::fopen(path.c_str(), "w");
    fatalIf(f == nullptr, ErrorCode::Io,
            "cannot open " + path + " for writing");
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: mrp_worker [--heartbeat-ms N] [--timeout SECONDS]\n"
        "                  [--ship-obs] [--obs-max-bytes N]\n"
        "                  [--metrics-out PATH] [--prof-out PATH]\n"
        "                  [--fault SITE:KIND[:FIRSTHIT[:MAXFIRES]]]"
        "...\n"
        "                  [--chaos-wedge SUBSTR[:MARKERFILE]]\n");
    return 2;
}

int
run(int argc, char** argv)
{
    unsigned heartbeat_ms = 25;
    double timeout_seconds = 0.0;
    bool ship_obs = false;
    std::size_t obs_max_bytes = 4u << 20;
    std::string metrics_out;
    std::string prof_out;
    std::string wedge_substr;
    std::string wedge_marker;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            fatalIf(i + 1 >= argc, ErrorCode::Config,
                    "missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--heartbeat-ms") {
            heartbeat_ms = flagInteger<unsigned>(arg, next());
            fatalIf(heartbeat_ms == 0, ErrorCode::Config,
                    "--heartbeat-ms must be positive");
        } else if (arg == "--timeout") {
            timeout_seconds = flagDouble(arg, next());
        } else if (arg == "--ship-obs") {
            ship_obs = true;
        } else if (arg == "--obs-max-bytes") {
            obs_max_bytes = flagInteger<std::size_t>(arg, next());
            fatalIf(obs_max_bytes == 0, ErrorCode::Config,
                    "--obs-max-bytes must be positive");
        } else if (arg == "--metrics-out") {
            metrics_out = next();
        } else if (arg == "--prof-out") {
            prof_out = next();
        } else if (arg == "--fault") {
            fault::armFromSpec(next());
        } else if (arg == "--chaos-wedge") {
            const std::string spec = next();
            const auto colon = spec.find(':');
            wedge_substr = spec.substr(0, colon);
            if (colon != std::string::npos)
                wedge_marker = spec.substr(colon + 1);
            fatalIf(wedge_substr.empty(), ErrorCode::Config,
                    "--chaos-wedge needs a label substring");
        } else {
            return usage();
        }
    }

    const bool want_telemetry = ship_obs || !metrics_out.empty();
    const bool want_profile = ship_obs || !prof_out.empty();

    emitLine(queue::helloLine(static_cast<std::uint64_t>(getpid())));

    // Heartbeat thread: ticks whenever a job is executing, echoing
    // the lease's span id. SIGSTOP (the chaos wedge) freezes this
    // thread with the rest of the process, which is exactly the hang
    // signature the broker's lease expiry machinery exists to catch.
    std::atomic<bool> shutdown{false};
    std::atomic<bool> beating{false};
    std::atomic<std::uint64_t> beat_job{0};
    std::atomic<std::uint64_t> beat_span{0};
    std::thread heartbeats([&] {
        std::uint64_t seq = 0;
        while (!shutdown.load()) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(heartbeat_ms));
            if (beating.load())
                emitLine(queue::heartbeatLine(beat_job.load(),
                                              beat_span.load(),
                                              seq++));
        }
    });

    // Exit-dump accumulators (only filled when requested).
    telemetry::Snapshot merged;
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_failed = 0;
    std::vector<std::pair<std::uint64_t, std::string>> phase_docs;

    int rc = 0;
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line == queue::kShutdownLine)
            break;
        const auto job = queue::parseJob(line);
        if (!job) {
            std::fprintf(stderr,
                         "mrp_worker: unparsable broker line\n");
            rc = 3;
            break;
        }
        auto request = queue::requestFromJson(
            job->json, "job " + std::to_string(job->jobId));

        if (!wedge_substr.empty()) {
            const std::string label =
                request.label.empty() && !request.sources.empty()
                    ? request.sources[0].displayName()
                    : request.label;
            if (label.find(wedge_substr) != std::string::npos &&
                (wedge_marker.empty() || !fileExists(wedge_marker))) {
                if (!wedge_marker.empty())
                    std::ofstream(wedge_marker) << "wedged\n";
                ::raise(SIGSTOP); // freeze until SIGKILLed
            }
        }

        // Observability is enabled worker-locally (the wire refuses
        // telemetry-enabled requests): both telemetry and profiling
        // are observation-only by contract, so the resultJson bytes
        // below are identical either way.
        if (want_telemetry)
            std::visit([](auto& cfg) { cfg.telemetry.enabled = true; },
                       request.config);

        beat_job.store(job->jobId);
        beat_span.store(job->spanId);
        beating.store(true);
        runner::RunnerOptions opts;
        opts.timeoutSeconds = timeout_seconds;
        opts.maxRetries = 0; // the broker owns retry policy
        opts.profile = want_profile;
        const auto result =
            runner::ExperimentRunner::runOne(request, job->jobId,
                                             opts);
        beating.store(false);

        result.ok() ? ++jobs_completed : ++jobs_failed;
        if (want_telemetry && result.telemetry)
            telemetry::mergeInto(merged,
                                 result.telemetry->finalSnapshot);
        if (!prof_out.empty() && result.profile)
            phase_docs.emplace_back(
                job->jobId,
                prof::phaseTreeJson(result.profile->root, 4));

        if (ship_obs) {
            obs::WorkerRunObs o;
            o.label = result.label;
            o.wallSeconds = result.wallSeconds;
            o.accesses =
                result.telemetry ? result.telemetry->accesses : 0;
            if (result.telemetry)
                o.metrics = result.telemetry->finalSnapshot;
            if (result.profile)
                o.phases = result.profile->root;
            std::string payload = obs::workerObsJson(o);
            if (payload.size() > obs_max_bytes) {
                // Keep the scalar facts, drop the bulk.
                obs::WorkerRunObs stub;
                stub.label = o.label;
                stub.wallSeconds = o.wallSeconds;
                stub.accesses = o.accesses;
                stub.truncated = true;
                payload = obs::workerObsJson(stub);
            }
            emitLine(queue::obsLine(job->jobId, job->spanId,
                                    payload));
        }
        emitLine(queue::resultLine(job->jobId, job->spanId,
                                   runner::resultJson(result)));
    }

    shutdown.store(true);
    heartbeats.join();

    if (!metrics_out.empty()) {
        std::string doc = "{\n  " + json::key("doc") +
                          json::str("mrp-worker-metrics-v1");
        doc += ",\n  " + json::key("pid") +
               std::to_string(static_cast<std::uint64_t>(getpid()));
        doc += ",\n  " + json::key("jobsCompleted") +
               std::to_string(jobs_completed);
        doc += ",\n  " + json::key("jobsFailed") +
               std::to_string(jobs_failed);
        doc += ",\n  " + json::key("metrics") +
               telemetry::snapshotJson(merged, "  ");
        doc += "\n}\n";
        writeFile(metrics_out, doc);
    }
    if (!prof_out.empty()) {
        std::string doc = "{\n  " + json::key("doc") +
                          json::str("mrp-worker-prof-v1");
        doc += ",\n  " + json::key("runs") + "[";
        for (std::size_t i = 0; i < phase_docs.size(); ++i) {
            doc += i ? ",\n    " : "\n    ";
            doc += json::firstKey("job") +
                   std::to_string(phase_docs[i].first) + ", " +
                   json::key("phases") + phase_docs[i].second + "}";
        }
        doc += phase_docs.empty() ? "]" : "\n  ]";
        doc += "\n}\n";
        writeFile(prof_out, doc);
    }
    return rc;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "mrp_worker: %s [%s]\n", e.what(),
                     errorCodeName(e.code()));
        return 2;
    }
}
