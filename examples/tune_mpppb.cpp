/**
 * @file
 * Example: tune the MPPPB thresholds and placement positions the way
 * the paper does (§5.5) — the bypass threshold τ0 by exhaustive
 * search, then the placement thresholds/positions and the promotion
 * threshold by random feasible combinations — minimizing average MPKI
 * on a training subset of benchmarks.
 *
 * Usage: tune_mpppb [substrate] [instructions] [combos]
 *   substrate: "mdpp" (default) or "srrip"
 * An unknown substrate or malformed number exits 2 with a typed
 * error.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/mpppb.hpp"
#include "sim/single_core.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"
#include "util/math_util.hpp"
#include "util/parse_number.hpp"
#include "util/rng.hpp"

using namespace mrp;

namespace {

/** Training subset: diverse, but far from the whole suite. */
const std::vector<unsigned> kTrainBenchmarks = {2,  7,  9,  12, 14,
                                                16, 18, 21, 25, 30};

/**
 * Objective: negative geomean speedup over LRU (lower is better, so
 * the search minimizes it like the paper minimizes average MPKI).
 */
double
evaluate(const std::vector<trace::Trace>& traces,
         const std::vector<double>& lru_ipc,
         const core::MpppbConfig& cfg)
{
    const auto factory = sim::makeMpppbFactory(cfg);
    std::vector<double> speedups;
    for (std::size_t i = 0; i < traces.size(); ++i) {
        trace::MaterializedTraceSource src(traces[i]);
        speedups.push_back(sim::runSingleCore(src, factory, {}).ipc /
                           lru_ipc[i]);
    }
    return -geomean(speedups);
}

int
run(int argc, char** argv)
{
    const std::string substrate = argc > 1 ? argv[1] : "mdpp";
    fatalIf(substrate != "mdpp" && substrate != "srrip", ErrorCode::Config,
            "unknown substrate '" + substrate + "'");
    const bool srrip = substrate == "srrip";
    const InstCount insts =
        argc > 2 ? flagInteger<InstCount>("instructions", argv[2])
                 : 1500000;
    const unsigned combos =
        argc > 3 ? flagInteger<unsigned>("combos", argv[3]) : 48;

    std::vector<trace::Trace> traces;
    for (const unsigned b : kTrainBenchmarks)
        traces.push_back(trace::makeSuiteTrace(b, insts));

    core::MpppbConfig cfg = srrip ? core::multiCoreMpppbConfig()
                                  : core::singleThreadMpppbConfig();

    std::vector<double> lru_ipc;
    for (const auto& t : traces) {
        trace::MaterializedTraceSource src(t);
        lru_ipc.push_back(
            sim::runSingleCore(src, sim::PolicyRegistry::make("LRU"), {})
                .ipc);
    }

    // --- Stage 1: exhaustive sweep of the bypass threshold. ---
    double best_mpki = 1e30;
    int best_tau0 = cfg.thresholds.tauBypass;
    for (int tau0 = -60; tau0 <= 160; tau0 += 20) {
        cfg.thresholds.tauBypass = tau0;
        const double m = evaluate(traces, lru_ipc, cfg);
        std::printf("tau0 %4d -> geomean speedup %8.4f\n", tau0, -m);
        if (m < best_mpki) {
            best_mpki = m;
            best_tau0 = tau0;
        }
    }
    cfg.thresholds.tauBypass = best_tau0;
    std::printf("best tau0 = %d (speedup %.4f)\n\n", best_tau0, -best_mpki);

    // --- Stage 2: random feasible placement/promotion combinations. ---
    Rng rng(0xC0FFEE);
    const std::uint32_t pos_max = srrip ? 3 : 15;
    core::MpppbThresholds best = cfg.thresholds;
    for (unsigned i = 0; i < combos; ++i) {
        core::MpppbThresholds t = cfg.thresholds;
        // τ1 > τ2 > τ3, all <= τ0.
        int taus[3];
        for (int& v : taus)
            v = static_cast<int>(rng.range(0, 220)) - 120;
        std::sort(taus, taus + 3, std::greater<int>());
        t.tau = {std::min(taus[0], best_tau0 - 1), taus[1], taus[2]};
        // π1 >= π2 >= π3 (less favorable positions for deader blocks).
        std::uint32_t pis[3];
        for (auto& v : pis)
            v = static_cast<std::uint32_t>(rng.range(1, pos_max));
        std::sort(pis, pis + 3, std::greater<std::uint32_t>());
        t.pi = {pis[0], pis[1], pis[2]};
        t.tauNoPromote = static_cast<int>(rng.range(0, 200)) - 60;

        core::MpppbConfig trial = cfg;
        trial.thresholds = t;
        const double m = evaluate(traces, lru_ipc, trial);
        if (m < best_mpki) {
            best_mpki = m;
            best = t;
            std::printf(
                "improved: speedup %8.4f  tau={%d,%d,%d} pi={%u,%u,%u} "
                "tau4=%d\n",
                -m, t.tau[0], t.tau[1], t.tau[2], t.pi[0], t.pi[1],
                t.pi[2], t.tauNoPromote);
        }
    }

    std::printf("\nfinal (%s): tau0=%d tau={%d,%d,%d} pi={%u,%u,%u} "
                "tau4=%d speedup=%.4f\n",
                srrip ? "srrip" : "mdpp", best.tauBypass, best.tau[0],
                best.tau[1], best.tau[2], best.pi[0], best.pi[1],
                best.pi[2], best.tauNoPromote, -best_mpki);
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return guardedMain("tune_mpppb", run, argc, argv);
}
