/**
 * @file
 * Executor: the one-method seam between "what to run" and "how it
 * runs". A batch of RunRequests goes in; a RunSet keyed by request
 * index comes out, byte-identical regardless of the executor behind
 * the seam — the in-process thread pool
 * (runner::ExperimentRunner) or the multi-process lease broker
 * (queue::Broker). Study and the CLIs program against this interface
 * so a sweep can move from threads to processes without touching its
 * caching, journaling, or report logic.
 */

#ifndef MRP_RUNNER_EXECUTOR_HPP
#define MRP_RUNNER_EXECUTOR_HPP

#include <vector>

#include "runner/run_request.hpp"

namespace mrp::runner {

struct RunnerOptions;

class Executor
{
  public:
    virtual ~Executor() = default;

    /**
     * Execute every request and return results in request order.
     * Implementations must honor the durability options (journal,
     * resume, retries) with identical semantics: the deterministic
     * fields of the RunSet depend only on the batch, never on the
     * execution vehicle.
     */
    virtual RunSet run(const std::vector<RunRequest>& batch,
                       const RunnerOptions& options) const = 0;
};

} // namespace mrp::runner

#endif // MRP_RUNNER_EXECUTOR_HPP
