/**
 * @file
 * Reproduces Figure 5: misses per 1000 instructions for the 4-core
 * multi-programmed workloads under LRU, Perceptron, Hawkeye, and
 * MPPPB, printed as a worst-to-best S-curve plus arithmetic means
 * (paper: LRU 14.1 > Perceptron 12.49 > Hawkeye 11.72 > MPPPB 10.97).
 */

#include <algorithm>

#include "bench_util.hpp"

namespace {

int
run(int, char**)
{
    using namespace mrp;
    const unsigned n_mixes = bench::mixCount(32);
    const auto suite = bench::makeSuiteRegions(bench::multiCoreInsts());
    const auto split = trace::makeMixSplit(16, n_mixes);
    const sim::MultiCoreConfig cfg;

    const std::vector<std::string> policies = {"LRU", "Perceptron",
                                               "Hawkeye", "MPPPB-MC"};
    std::vector<std::vector<double>> mpki(policies.size());

    for (const auto& mix : split.test) {
        const bench::MixSources sources(suite, mix);
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const auto r = sim::runMultiCore(
                sources.ptrs(), sim::PolicyRegistry::make(policies[p]),
                cfg);
            mpki[p].push_back(r.mpki);
        }
        std::fprintf(stderr, "# done %s\n", mix.name().c_str());
    }

    std::printf("# Figure 5: LLC demand MPKI, 4-core, 8MB LLC, %zu "
                "test mixes (sorted descending per policy)\n",
                split.test.size());
    std::printf("%-8s", "rank");
    for (const auto& p : policies)
        std::printf(" %12s", p.c_str());
    std::printf("\n");
    for (auto& col : mpki)
        std::sort(col.begin(), col.end(), std::greater<double>());
    for (std::size_t i = 0; i < split.test.size(); ++i) {
        std::printf("%-8zu", i);
        for (const auto& col : mpki)
            std::printf(" %12.3f", col[i]);
        std::printf("\n");
    }
    std::printf("%-8s", "mean");
    for (const auto& col : mpki)
        std::printf(" %12.3f", mean(col));
    std::printf("\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return mrp::guardedMain("fig5_multicore_mpki", run, argc, argv);
}
