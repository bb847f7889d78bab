/**
 * @file
 * Parallel executor for experiment batches.
 *
 * Every (trace, policy) cell of a paper figure is independent: each
 * run builds its own hierarchy, policy, and core models, and traces
 * are immutable, so cells parallelize with no shared mutable state.
 * The runner executes a batch of RunRequests across worker threads
 * (util/parallel_for.hpp: each idle worker takes the next request) and
 * returns results keyed by request index, so the outcome is
 * bit-identical for any worker count (only the wall-clock metrics
 * differ).
 *
 * RunnerOptions adds the durability layer for long sweeps: an
 * append-only checkpoint journal of completed results (see
 * checkpoint.hpp), resume from such a journal (completed indices are
 * not re-executed, and the final reports are byte-identical to an
 * uninterrupted run), a per-run watchdog deadline, and bounded
 * retry-with-exponential-backoff for transient failures.
 */

#ifndef MRP_RUNNER_EXPERIMENT_RUNNER_HPP
#define MRP_RUNNER_EXPERIMENT_RUNNER_HPP

#include <vector>

#include "runner/executor.hpp"
#include "runner/run_request.hpp"
#include "telemetry/metrics.hpp"

namespace mrp::runner {

/** Durability knobs for a batch; default-constructed = PR-1 behavior
 * (no journal, no deadline, no retries). */
struct RunnerOptions
{
    /** Append each completed result to this JSONL journal (fsync'd);
     * empty = no journaling. */
    std::string journalPath;
    /**
     * Load this journal before executing and skip every request index
     * it already covers (failed results are final too: rerun them
     * with a fresh journal if that is not wanted). Entries must match
     * the batch — same benchmark, policy, label, and mode at each
     * index — or the batch aborts with ErrorCode::Config. Empty =
     * cold start.
     */
    std::string resumePath;
    /**
     * Per-run watchdog deadline in seconds; 0 = unlimited. The check
     * is cooperative: a run that finishes past the deadline is
     * reported as ErrorCode::Timeout with its metrics discarded (the
     * watchdog cannot preempt a wedged simulation kernel, but it
     * keeps a stalled run from contaminating the batch and makes the
     * stall retryable).
     */
    double timeoutSeconds = 0.0;
    /** Extra attempts for runs failing with a retryable code (io,
     * timeout, resource — see mrp::isRetryable). 0 = no retries. */
    unsigned maxRetries = 0;
    /** Base of the deterministic exponential retry backoff: attempt k
     * sleeps backoff * 2^k seconds before re-executing. */
    double retryBackoffSeconds = 0.01;

    /**
     * Attach a per-run Profiler (prof/profiler.hpp) to each worker for
     * the duration of each run and store the resulting ProfileReport
     * in RunResult::profile. Off by default: detached runs produce
     * reports byte-identical to a build without profiling.
     */
    bool profile = false;

    /**
     * Live batch progress. Opt-in and deliberately excluded from the
     * deterministic report surface: progress output is wall-clock
     * flavored (ETA, retry state) and varies run to run.
     * `progressStderr` emits one human-readable line per event to
     * stderr; `progressJsonlPath` appends one JSON object per event
     * ("batch_start", "run_start", "run_retry", "run_end",
     * "run_skipped", "batch_end") to the given file. Lines are written
     * with a single fwrite under a lock (never interleaved) and
     * flushed but NOT fsync'd — progress is a liveness signal, not a
     * durability record (that is the checkpoint journal's job).
     * Runs restored from RunnerOptions::resumePath are reported as
     * "run_skipped": they were not executed, so they have no timing
     * and do not count toward the ETA estimate.
     */
    bool progressStderr = false;
    std::string progressJsonlPath;

    /**
     * Optional metrics sink. When set, the batch records
     * runner.completed / runner.failed / runner.skipped (resume
     * prefill) / runner.retries counters — observation-only, never
     * part of the deterministic report surface. The queue broker
     * records the same counters for its batches, so a broker
     * --metrics-out covers runner.* and queue.* alike.
     */
    telemetry::MetricsRegistry* metrics = nullptr;
};

class ExperimentRunner : public Executor
{
  public:
    /**
     * @param jobs worker-thread count; 0 picks the hardware
     *        concurrency (at least 1).
     */
    explicit ExperimentRunner(unsigned jobs = 0);

    /** Resolved worker count. */
    unsigned jobs() const { return jobs_; }

    /**
     * Execute every request and return results in request order.
     * Malformed requests (wrong trace count, null trace) throw
     * FatalError before any thread starts; runtime failures of an
     * individual run (unknown policy name, driver error) are captured
     * in that run's RunResult::error / errorCode and do not abort the
     * batch.
     */
    RunSet run(const std::vector<RunRequest>& batch) const;

    /** As above with the durability options (journal, resume,
     * watchdog, retries). */
    RunSet run(const std::vector<RunRequest>& batch,
               const RunnerOptions& options) const override;

    /** Execute one request in the calling thread (index 0). */
    static RunResult runOne(const RunRequest& request,
                            std::size_t index = 0);

    /** Execute one request honoring the watchdog/retry options (the
     * journal/resume fields are ignored at this granularity). */
    static RunResult runOne(const RunRequest& request,
                            std::size_t index,
                            const RunnerOptions& options);

  private:
    unsigned jobs_;
};

} // namespace mrp::runner

#endif // MRP_RUNNER_EXPERIMENT_RUNNER_HPP
