#include "queue/broker.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <map>
#include <optional>
#include <thread>

#include "obs/payload.hpp"
#include "obs/span.hpp"
#include "prof/profiler.hpp"
#include "queue/wire.hpp"
#include "queue/work_queue.hpp"
#include "runner/checkpoint.hpp"
#include "util/crc32.hpp"
#include "util/json_writer.hpp"
#include "util/subprocess.hpp"

namespace mrp::queue {

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t
millisBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration_cast<std::chrono::milliseconds>(
               to - from)
        .count();
}

std::string
hex8(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

std::string
mixName(const std::vector<trace::TraceSpec>& sources)
{
    std::string out;
    for (const auto& s : sources) {
        if (!out.empty())
            out += "+";
        out += s.displayName();
    }
    return out;
}

/** Identity fields, matching the runner's own stamping exactly so a
 * broker-synthesized failure is indistinguishable (in report and
 * journal bytes) from an in-process one. */
void
stampIdentity(const runner::RunRequest& req, std::size_t index,
              runner::RunResult& out)
{
    out.index = index;
    out.benchmark = mixName(req.sources);
    out.policy = req.policy.name;
    out.label = req.label.empty() ? out.benchmark : req.label;
    out.multiCore = req.isMultiCore();
    out.seed = std::visit(
        [](const auto& cfg) { return cfg.seed; }, req.config);
}

/** Cached metric handles; all null when no registry is attached. */
struct BrokerMetrics
{
    telemetry::Counter* leaseExpired = nullptr;
    telemetry::Counter* requeued = nullptr;
    telemetry::Counter* workerRestarts = nullptr;
    telemetry::Counter* requeueExhausted = nullptr;
    telemetry::Histogram* heartbeatLatency = nullptr;

    explicit BrokerMetrics(telemetry::MetricsRegistry* reg)
    {
        if (!reg)
            return;
        leaseExpired = &reg->counter("queue.lease_expired");
        requeued = &reg->counter("queue.requeued");
        workerRestarts = &reg->counter("queue.worker_restarts");
        requeueExhausted = &reg->counter("queue.requeue_exhausted");
        heartbeatLatency = &reg->histogram(
            "queue.heartbeat_latency_ms",
            telemetry::powerOfTwoBounds(14));
    }
};

struct Slot
{
    proc::Child child;
    unsigned index = 0; //!< stable slot number (the obs worker id)
    bool alive = false;
    bool ready = false; //!< HELLO received and schema-checked
    bool busy = false;
    std::uint64_t jobId = 0;
    std::uint64_t spanId = 0; //!< span of the held lease
    Clock::time_point lastBeat;
};

} // namespace

Broker::Broker(BrokerConfig cfg) : cfg_(std::move(cfg))
{
    fatalIf(cfg_.workerBin.empty(), ErrorCode::Config,
            "broker needs a worker binary path");
    fatalIf(cfg_.queuePath.empty(), ErrorCode::Config,
            "broker needs a durable queue journal path");
    fatalIf(cfg_.workers == 0, ErrorCode::Config,
            "broker needs at least one worker");
    fatalIf(cfg_.maxAttempts == 0, ErrorCode::Config,
            "the lease budget (maxAttempts) must be at least 1");
}

runner::RunSet
Broker::run(const std::vector<runner::RunRequest>& batch,
            const runner::RunnerOptions& options) const
{
    const prof::Stopwatch watch;
    BrokerMetrics m(cfg_.metrics);
    const std::size_t n = batch.size();
    std::vector<std::optional<runner::RunResult>> prefilled(n);

    // Resume prefill, identity-validated like the in-process runner.
    if (!options.resumePath.empty() &&
        journal::fileExists(options.resumePath)) {
        for (auto& r : runner::loadJournal(options.resumePath)) {
            fatalIf(r.index >= n, ErrorCode::Config,
                    "resume journal " + options.resumePath +
                        " run index " + std::to_string(r.index) +
                        " exceeds the batch size");
            runner::RunResult expect;
            stampIdentity(batch[r.index], r.index, expect);
            fatalIf(r.benchmark != expect.benchmark ||
                        r.policy != expect.policy ||
                        r.label != expect.label ||
                        r.multiCore != expect.multiCore,
                    ErrorCode::Config,
                    "resume journal " + options.resumePath +
                        " entry " + std::to_string(r.index) + " (" +
                        r.benchmark + "/" + r.policy +
                        ") does not match the request at that index");
            prefilled[r.index] = std::move(r);
        }
    }

    // Wire-encode the remaining work; the batch fingerprint binds the
    // queue file to exactly this job set.
    std::map<std::uint64_t, std::string> reqJson;
    std::string fp_text =
        "qschema" + std::to_string(kWireSchemaVersion);
    for (std::size_t i = 0; i < n; ++i) {
        if (prefilled[i])
            continue;
        reqJson.emplace(i, requestJson(batch[i]));
    }
    for (const auto& [id, j] : reqJson) {
        fp_text += '\n';
        fp_text += std::to_string(id) + " " + j;
    }
    WorkQueue queue(cfg_.queuePath,
                    hex8(Crc32::of(fp_text.data(), fp_text.size())));
    for (const auto& [id, j] : reqJson)
        queue.ensureEnqueued(id, j);

    // Span context: derived ids, never random (obs/span.hpp). The
    // wire carries them whether or not a collector is listening; the
    // batch sequence keeps re-run generations (same job-id space) on
    // distinct spans.
    obs::FleetCollector* const col = cfg_.collector;
    const std::uint64_t batch_seq =
        col ? col->batchStarted(fp_text) : 0;
    const std::uint64_t trace_id =
        col ? col->traceId() : obs::deriveTraceId(fp_text);
    const auto labelOf = [&](std::uint64_t id) {
        const auto& req = batch[id];
        return req.label.empty() ? mixName(req.sources) : req.label;
    };

    std::unique_ptr<runner::CheckpointJournal> journal;
    if (!options.journalPath.empty())
        journal = std::make_unique<runner::CheckpointJournal>(
            options.journalPath);

    // Backoff deadlines (scheduling only — never part of any result).
    std::map<std::uint64_t, Clock::time_point> not_before;
    std::uint64_t leases_granted = 0;
    std::uint64_t completions = 0;
    unsigned restarts = 0;

    const auto spawnWorker = [&]() {
        std::vector<std::string> args = {
            "--heartbeat-ms", std::to_string(cfg_.heartbeatMs)};
        if (col)
            args.emplace_back("--ship-obs");
        if (options.timeoutSeconds > 0.0) {
            args.emplace_back("--timeout");
            args.emplace_back(
                json::formatDouble(options.timeoutSeconds));
        }
        args.insert(args.end(), cfg_.workerArgs.begin(),
                    cfg_.workerArgs.end());
        return proc::Child::spawn(cfg_.workerBin, args);
    };

    // Record one finished result: checkpoint journal first, then the
    // queue — so a Done job is always already journaled, whatever
    // instant the broker dies at.
    const auto recordCompletion = [&](std::uint64_t id,
                                      const runner::RunResult& r,
                                      const std::string& result_json) {
        if (journal)
            journal->append(r);
        queue.complete(id, result_json);
        ++completions;
        fatalIf(cfg_.chaosAbortAfterCompletions != 0 &&
                    completions == cfg_.chaosAbortAfterCompletions,
                ErrorCode::Internal,
                "chaos-induced broker crash after " +
                    std::to_string(completions) +
                    " completion(s) (test hook)");
    };

    // A failed attempt either requeues (budget left) with exponential
    // backoff, or completes the job with a synthesized failed-typed
    // result carrying in-process-identical identity fields.
    const auto failAttempt = [&](unsigned slot, std::uint64_t id,
                                 ErrorCode code,
                                 const std::string& reason,
                                 const std::string& detail) {
        const unsigned attempts = queue.job(id).attempts;
        if (attempts < cfg_.maxAttempts) {
            if (m.requeued)
                m.requeued->add();
            if (col)
                col->requeued(slot);
            queue.requeue(id, reason, code);
            const double delay =
                cfg_.backoffSeconds *
                static_cast<double>(
                    1ull << std::min(attempts - 1, 20u));
            not_before[id] =
                Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(delay));
            return;
        }
        if (m.requeueExhausted)
            m.requeueExhausted->add();
        if (col)
            col->requeueExhausted(slot);
        runner::RunResult out;
        stampIdentity(batch[id], id, out);
        out.error = "job failed after " + std::to_string(attempts) +
                    " attempt(s): " + detail;
        out.errorCode = code;
        out.attempts = attempts;
        recordCompletion(id, out, runner::resultJson(out));
    };

    std::vector<Slot> slots(cfg_.workers);
    for (unsigned i = 0; i < cfg_.workers; ++i)
        slots[i].index = i;
    const auto workerDied = [&](Slot& s, ErrorCode code,
                                const std::string& reason,
                                const std::string& detail) {
        s.child.kill(SIGKILL);
        const auto status = s.child.waitReap();
        s.alive = false;
        s.ready = false;
        if (s.busy) {
            s.busy = false;
            // Whatever killed the holder, the *span* ends because its
            // lease was revoked; the reason annotation keeps the
            // worker-exit vs heartbeat-timeout distinction.
            if (col)
                col->spanClosed(s.index, s.spanId, "lease_expired",
                                reason);
            failAttempt(s.index, s.jobId, code, reason,
                        detail + " (" + status.toString() + ")");
        }
        if (restarts < cfg_.workerRestartBudget) {
            ++restarts;
            if (m.workerRestarts)
                m.workerRestarts->add();
            s.child = spawnWorker();
            s.alive = true;
            s.lastBeat = Clock::now();
            if (col)
                col->workerRestarted(
                    s.index,
                    static_cast<std::uint64_t>(s.child.pid()));
        }
    };

    if (!queue.allDone()) {
        for (auto& s : slots) {
            s.child = spawnWorker();
            s.alive = true;
            s.lastBeat = Clock::now();
            if (col)
                col->workerStarted(
                    s.index,
                    static_cast<std::uint64_t>(s.child.pid()));
        }
    }

    while (!queue.allDone()) {
        const auto now = Clock::now();

        // 1) Drain worker output; observe deaths.
        for (auto& s : slots) {
            if (!s.alive)
                continue;
            std::vector<std::string> lines;
            bool broken = false;
            try {
                lines = s.child.drainLines();
            } catch (const FatalError&) {
                broken = true; // injected/real read failure
            }
            for (const auto& line : lines) {
                if (const auto h = parseHello(line)) {
                    fatalIf(h->schema != kWireSchemaVersion,
                            ErrorCode::Config,
                            "worker pid " + std::to_string(h->pid) +
                                " speaks queue schema v" +
                                std::to_string(h->schema) +
                                " but this broker speaks v" +
                                std::to_string(kWireSchemaVersion));
                    s.ready = true;
                    s.lastBeat = now;
                } else if (const auto hb = parseHeartbeat(line)) {
                    if (s.busy && hb->jobId == s.jobId) {
                        if (m.heartbeatLatency)
                            m.heartbeatLatency->record(
                                millisBetween(s.lastBeat, now));
                        s.lastBeat = now;
                        if (col)
                            col->heartbeat(s.index, hb->spanId);
                    }
                } else if (const auto ob = parseObs(line)) {
                    // Observation-only by contract: a malformed
                    // payload is dropped, never allowed to fail the
                    // study. An OBS line is also liveness evidence —
                    // a large payload must not eat into the
                    // heartbeat deadline of the RESULT behind it.
                    if (s.busy && ob->jobId == s.jobId) {
                        s.lastBeat = now;
                        if (col) {
                            try {
                                col->workerObs(
                                    s.index, ob->spanId,
                                    obs::workerObsFromJson(
                                        ob->json,
                                        "OBS payload for job " +
                                            std::to_string(
                                                ob->jobId)));
                            } catch (const FatalError&) {
                            }
                        }
                    }
                } else if (const auto res = parseResult(line)) {
                    fatalIf(!s.busy || res->jobId != s.jobId,
                            ErrorCode::CorruptInput,
                            "worker sent a result for job " +
                                std::to_string(res->jobId) +
                                " which it does not hold");
                    const auto parsed =
                        runner::resultFromJson(res->json);
                    fatalIf(!parsed, ErrorCode::CorruptInput,
                            "worker result for job " +
                                std::to_string(res->jobId) +
                                " does not parse");
                    s.busy = false;
                    s.lastBeat = now;
                    const bool retryable =
                        !parsed->ok() && isRetryable(parsed->errorCode);
                    if (col)
                        col->spanClosed(
                            s.index, res->spanId,
                            parsed->ok()
                                ? "ok"
                                : (retryable ? "retryable_error"
                                             : "error"),
                            parsed->ok()
                                ? ""
                                : errorCodeName(parsed->errorCode));
                    if (retryable) {
                        // failAttempt requeues while budget remains,
                        // else synthesizes the exhaustion failure.
                        failAttempt(s.index, res->jobId,
                                    parsed->errorCode,
                                    "retryable-error",
                                    parsed->error);
                    } else {
                        recordCompletion(res->jobId, *parsed,
                                         res->json);
                    }
                } else {
                    // Torn/garbled output — a worker dying mid-write.
                    broken = true;
                }
            }
            if (s.alive &&
                (broken || s.child.eof() || s.child.tryReap()))
                workerDied(s, ErrorCode::Resource, "worker-exit",
                           "worker process died or broke protocol");
        }

        // 2) Heartbeat deadlines: silent-too-long workers lose their
        // lease (and never-HELLO workers their slot).
        for (auto& s : slots) {
            if (!s.alive)
                continue;
            if (millisBetween(s.lastBeat, now) <=
                static_cast<std::int64_t>(cfg_.heartbeatTimeoutMs))
                continue;
            if (s.busy) {
                if (m.leaseExpired)
                    m.leaseExpired->add();
                if (col)
                    col->leaseExpired(s.index);
                workerDied(
                    s, ErrorCode::Timeout, "heartbeat-timeout",
                    "lease expired: no heartbeat for " +
                        std::to_string(cfg_.heartbeatTimeoutMs) +
                        "ms");
            } else if (!s.ready) {
                workerDied(s, ErrorCode::Resource, "worker-exit",
                           "worker never said HELLO");
            }
        }

        // 3) Dispatch pending work to idle workers, lowest id first,
        // honoring backoff deadlines.
        for (auto& s : slots) {
            if (!s.alive || !s.ready || s.busy)
                continue;
            std::optional<std::uint64_t> pick;
            for (const auto id : queue.pendingIds()) {
                const auto it = not_before.find(id);
                if (it != not_before.end() && now < it->second)
                    continue;
                pick = id;
                break;
            }
            if (!pick)
                break;
            queue.lease(*pick);
            ++leases_granted;
            const unsigned attempt = queue.job(*pick).attempts;
            s.busy = true;
            s.jobId = *pick;
            s.spanId = obs::deriveSpanId(trace_id, batch_seq, *pick,
                                         attempt);
            s.lastBeat = Clock::now();
            if (col)
                col->leaseGranted(s.index, *pick, s.spanId, attempt,
                                  labelOf(*pick));
            // Chaos: a scripted external SIGKILL of the Nth lease's
            // holder, as the CI smoke job does with pkill. It lands
            // before the job line is sent, so the worker always dies
            // holding the lease; sent after it, a short job could
            // finish before the signal and the kill would miss it.
            if (cfg_.killWorkerAfterLeases != 0 &&
                leases_granted == cfg_.killWorkerAfterLeases) {
                s.child.kill(SIGKILL);
                continue;
            }
            try {
                s.child.writeLine(
                    jobLine(*pick, {trace_id, s.spanId},
                            queue.job(*pick).requestJson));
            } catch (const FatalError&) {
                workerDied(s, ErrorCode::Resource, "worker-exit",
                           "worker pipe broke during dispatch");
                continue;
            }
        }

        if (queue.allDone())
            break;
        bool any_alive = false;
        for (const auto& s : slots)
            any_alive = any_alive || s.alive;
        fatalIf(!any_alive, ErrorCode::Resource,
                "all workers are dead and the restart budget is "
                "exhausted with work remaining");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Polite shutdown; Child's destructor covers the impolite cases.
    for (auto& s : slots) {
        if (!s.alive)
            continue;
        try {
            s.child.writeLine(kShutdownLine);
        } catch (const FatalError&) {
        }
        s.child.closeStdin();
        s.child.waitReap();
    }

    runner::RunSet set;
    set.jobs = cfg_.workers;
    set.results.reserve(n);
    std::uint64_t done = 0, failed = 0, skipped = 0, retries = 0;
    for (std::size_t i = 0; i < n; ++i) {
        if (prefilled[i]) {
            ++skipped;
            set.results.push_back(std::move(*prefilled[i]));
            continue;
        }
        const auto parsed =
            runner::resultFromJson(queue.job(i).resultJson);
        fatalIf(!parsed, ErrorCode::Internal,
                "queue journal holds an unparsable result for job " +
                    std::to_string(i));
        parsed->ok() ? ++done : ++failed;
        const unsigned attempts = queue.job(i).attempts;
        if (attempts > 1)
            retries += attempts - 1;
        set.results.push_back(std::move(*parsed));
        set.results.back().index = i;
    }
    // Mirror the in-process runner's batch counters so a broker
    // --metrics-out covers runner.* and queue.* alike.
    if (cfg_.metrics) {
        cfg_.metrics->counter("runner.completed").add(done);
        cfg_.metrics->counter("runner.failed").add(failed);
        cfg_.metrics->counter("runner.skipped").add(skipped);
        cfg_.metrics->counter("runner.retries").add(retries);
    }
    set.wallSeconds = watch.seconds();
    return set;
}

} // namespace mrp::queue
