/**
 * @file
 * Reproduces Figure 4: normalized weighted speedup over LRU for
 * 4-core multi-programmed workloads under Perceptron, Hawkeye, and
 * MPPPB (SRRIP substrate, Table 2 features, 8MB shared LLC), printed
 * as an ascending S-curve plus geometric means (paper: Perceptron
 * +5.8%, Hawkeye +5.2%, MPPPB +8.3%).
 *
 * The paper evaluates 900 test mixes; the default here is a scaled
 * sample (MRP_BENCH_MIXES to enlarge). Mixes come from the same
 * train/test split machinery the paper uses — the first mixes are
 * reserved for training and never measured here.
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
    const auto single_ipc = bench::standaloneIpcTable(suite, cfg);

    const std::vector<std::string> policies = {"Perceptron", "Hawkeye",
                                               "MPPPB-MC"};
    std::vector<std::vector<double>> ws(policies.size());

    for (const auto& mix : split.test) {
        const bench::MixSources sources(suite, mix);
        std::vector<double> single(4, 0.0);
        for (unsigned c = 0; c < 4; ++c)
            single[c] = single_ipc[mix.benchmarks[c]];
        const double lru_ws =
            sim::runMultiCore(sources.ptrs(),
                              sim::PolicyRegistry::make("LRU"), cfg)
                .weightedSpeedup(single);
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const auto r = sim::runMultiCore(
                sources.ptrs(), sim::PolicyRegistry::make(policies[p]),
                cfg);
            ws[p].push_back(r.weightedSpeedup(single) / lru_ws);
        }
        std::fprintf(stderr, "# done %s\n", mix.name().c_str());
    }

    std::printf("# Figure 4: normalized weighted speedup over LRU, "
                "4-core, 8MB LLC, %zu test mixes\n",
                split.test.size());
    std::printf("%-8s", "rank");
    for (const auto& p : policies)
        std::printf(" %12s", p.c_str());
    std::printf("\n");
    for (auto& col : ws)
        std::sort(col.begin(), col.end());
    for (std::size_t i = 0; i < split.test.size(); ++i) {
        std::printf("%-8zu", i);
        for (const auto& col : ws)
            std::printf(" %12.4f", col[i]);
        std::printf("\n");
    }
    std::printf("%-8s", "geomean");
    for (const auto& col : ws)
        std::printf(" %12.4f", geomean(col));
    std::printf("\n");

    // The paper also reports how many mixes fall below LRU
    // (Hawkeye 18, Perceptron 201, MPPPB 115 of 900).
    std::printf("\n# mixes below LRU:");
    for (std::size_t p = 0; p < policies.size(); ++p) {
        const auto below = std::count_if(ws[p].begin(), ws[p].end(),
                                         [](double v) { return v < 1.0; });
        std::printf(" %s=%ld", policies[p].c_str(),
                    static_cast<long>(below));
    }
    std::printf("\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return mrp::guardedMain("fig4_multicore_speedup", run, argc, argv);
}
