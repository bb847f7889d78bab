/**
 * @file
 * Configuration shared by every simulation entry point.
 *
 * SingleCoreConfig and MultiCoreConfig used to duplicate the hierarchy
 * and warmup knobs as unrelated structs, which made it impossible to
 * pass "a driver configuration" around generically (the experiment
 * runner needs exactly that). DriverConfig is now the common base:
 * hierarchy sizing plus both warmup schemes the driver uses.
 */

#ifndef MRP_SIM_DRIVER_CONFIG_HPP
#define MRP_SIM_DRIVER_CONFIG_HPP

#include "cache/hierarchy.hpp"
#include "telemetry/config.hpp"
#include "util/types.hpp"

namespace mrp::sim {

/**
 * Base of every driver configuration: the memory hierarchy to build
 * and the warmup policy to apply before measurement.
 *
 * Two warmup schemes exist in the paper and both live here so derived
 * configs do not re-declare them (which is how SingleCoreConfig and
 * MultiCoreConfig drifted apart historically — add new shared fields
 * HERE, not in the derived structs):
 *  - warmupFraction: warm for a fraction of the trace (runSingleCore
 *    and runSingleCoreMin, §4.1). Every run rejects a value that is
 *    not finite or lies outside [0, 1).
 *  - warmupInstructions: warm until a retired-instruction budget is
 *    reached (the FIESTA scheme of §4.2): in total across cores for a
 *    shared mix, as an equal per-core share for a partitioned mix, and
 *    as a quarter per core for standaloneIpc.
 * One engine runs every entry point; DESIGN.md §6 "Simulation driver"
 * spells out which rule each one uses.
 */
struct DriverConfig
{
    cache::HierarchyConfig hierarchy{}; //!< 2MB LLC default

    double warmupFraction = 0.25; //!< fraction of the trace for warmup

    /**
     * Total warmup across cores; sized so the 8MB LLC (131K blocks)
     * fills and the predictors reach steady state before measurement.
     */
    InstCount warmupInstructions = 1600000;

    /**
     * Opt-in telemetry. When enabled the driver attaches a metrics
     * session at the start of the measurement window and the result
     * carries a RunTelemetry. Disabled (the default) costs nothing.
     */
    telemetry::TelemetryConfig telemetry{};

    /**
     * Experiment RNG seed. The simulation itself is deterministic, so
     * the driver does not draw from it; its job is provenance: the
     * runner stamps it into every RunResult and the reports/journal
     * record it (when nonzero), so a study can be replayed from its
     * report alone. Callers that re-seed their inputs (trace
     * generation salt, sweep strategies) should thread the same value
     * here. 0 = the paper-default seeding, omitted from reports.
     */
    std::uint64_t seed = 0;
};

} // namespace mrp::sim

#endif // MRP_SIM_DRIVER_CONFIG_HPP
