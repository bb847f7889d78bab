/**
 * @file
 * Name-based construction of LLC policies, so drivers, benches, and
 * examples can be parameterized by policy name.
 *
 * Policies live in a process-wide PolicyRegistry: the library's
 * built-in policies self-register at load time, and experiments may
 * register additional factories under new names (e.g. tuned MPPPB
 * variants) so every name-driven tool — the experiment runner, the
 * CLI, the benches — can construct them.
 */

#ifndef MRP_SIM_POLICIES_HPP
#define MRP_SIM_POLICIES_HPP

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/llc_policy.hpp"
#include "core/mpppb.hpp"

namespace mrp::sim {

/** Builds a policy instance for a given LLC geometry and core count. */
using PolicyFactory = std::function<std::unique_ptr<cache::LlcPolicy>(
    const cache::CacheGeometry& geom, unsigned cores)>;

/**
 * Process-wide name -> factory registry of LLC policies.
 *
 * Built-in names: "LRU", "Random", "SRRIP", "DRRIP", "MDPP", "SHiP",
 * "SDBP", "Perceptron", "Hawkeye", "MPPPB" (single-thread
 * configuration, MDPP substrate), "MPPPB-MC" (multi-core
 * configuration, SRRIP substrate), plus the feature-set variants
 * "MPPPB-1A"/"MPPPB-1B"/"MPPPB-T2"/"MPPPB-Local" and "MPPPB-DYN".
 * MIN is not listed: it needs a recording pre-pass (see
 * runSingleCoreMin); name-driven tools special-case it.
 *
 * All operations are thread-safe; registration is expected at startup
 * but is permitted at any time.
 */
class PolicyRegistry
{
  public:
    /**
     * Register @p factory under @p name. Throws FatalError if the name
     * is already taken (duplicate registrations are always a bug: the
     * second registrant would silently change what every experiment
     * runs). @p paperRank orders the policy within paperPolicyNames();
     * leave it negative for policies outside the paper's main figures.
     */
    static void registerPolicy(const std::string& name,
                               PolicyFactory factory, int paperRank = -1);

    /** Factory for a registered name; throws FatalError if unknown. */
    static PolicyFactory make(const std::string& name);

    /** Whether @p name is registered. */
    static bool contains(const std::string& name);

    /** Every registered name, sorted alphabetically. */
    static std::vector<std::string> names();
};

/** Factory for MPPPB with an explicit configuration. */
PolicyFactory makeMpppbFactory(const core::MpppbConfig& cfg);

/**
 * The realistic policies compared in the paper's figures, in figure
 * order — a registry query over entries registered with a paper rank.
 */
std::vector<std::string> paperPolicyNames();

} // namespace mrp::sim

#endif // MRP_SIM_POLICIES_HPP
