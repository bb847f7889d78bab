/**
 * @file
 * The published feature sets: Table 1(a) and 1(b) (single-thread,
 * cross-validated) and Table 2 (multi-programmed).
 */

#ifndef MRP_CORE_FEATURE_SETS_HPP
#define MRP_CORE_FEATURE_SETS_HPP

#include <vector>

#include "core/feature.hpp"

namespace mrp::core {

/** Table 1(a): first cross-validated single-thread feature set. */
std::vector<FeatureSpec> featureSetTable1A();

/**
 * Table 1(b): second cross-validated single-thread feature set (the
 * one whose index-vector size the paper uses for its area estimate).
 */
std::vector<FeatureSpec> featureSetTable1B();

/**
 * Table 2: the multi-programmed feature set. The paper's
 * "address(9,9,14,5,1)" carries five parameters — one more than
 * address takes — and is read as pc(9,9,14,5,1) (see DESIGN.md).
 */
std::vector<FeatureSpec> featureSetTable2();

/**
 * A feature set developed *on this infrastructure* with the paper's
 * §5 methodology (60 random sets seeded with the published tables,
 * then 120 hill-climbing proposals, scored by average MPKI on the 10
 * training workloads; mrp_sweep_cli now runs such searches, with a
 * genetic refinement in place of the hill climb). Demonstrates that the
 * search machinery reproduces the paper's workflow end to end; the
 * published Table 1(a) remains the default configuration.
 */
std::vector<FeatureSpec> featureSetLocal();

} // namespace mrp::core

#endif // MRP_CORE_FEATURE_SETS_HPP
