/**
 * @file
 * Reproduces Figure 6: single-thread speedup over LRU per benchmark
 * for Hawkeye, Perceptron, MPPPB, and MIN on the 2MB-LLC
 * configuration, sorted by MPPPB speedup as in the paper, with
 * geometric means (paper: Hawkeye 5.1%, Perceptron 6.3%, MPPPB 9.0%,
 * MIN 13.6% — our substrate is synthetic, so the *ordering* and
 * MPPPB's ~2/3-of-MIN share are the reproduction targets).
 *
 * The benchmark × policy product runs through the parallel
 * ExperimentRunner (--jobs N / MRP_BENCH_JOBS).
 */

#include <algorithm>

#include "bench_util.hpp"

namespace {

int
run(int argc, char** argv)
{
    using namespace mrp;
    const InstCount insts = bench::singleThreadInsts();
    const std::vector<std::string> policies = {
        "LRU", "Hawkeye", "Perceptron", "MPPPB", "MIN"};

    const auto suite = bench::makeSuiteTraces(insts);
    std::vector<runner::RunRequest> batch;
    batch.reserve(suite.size() * policies.size());
    for (const auto& tr : suite)
        for (const auto& p : policies)
            batch.push_back(runner::RunRequest::singleCore(
                trace::TraceSpec::borrowed(tr),
                runner::PolicySpec::byName(p)));

    const runner::ExperimentRunner pool(bench::jobsFromArgs(argc, argv));
    const auto set = pool.run(batch);
    bench::reportBatch(set);

    struct Row
    {
        std::string benchmark;
        double hawkeye, perceptron, mpppb, min;
    };
    std::vector<Row> rows;
    const std::size_t stride = policies.size();
    for (unsigned b = 0; b < trace::suiteSize(); ++b) {
        const std::size_t base = b * stride;
        Row row;
        row.benchmark = set.results[base].benchmark;
        row.hawkeye = set.speedupOver(base + 1, "LRU");
        row.perceptron = set.speedupOver(base + 2, "LRU");
        row.mpppb = set.speedupOver(base + 3, "LRU");
        row.min = set.speedupOver(base + 4, "LRU");
        rows.push_back(row);
    }

    std::sort(rows.begin(), rows.end(),
              [](const Row& a, const Row& b) { return a.mpppb < b.mpppb; });

    std::printf("# Figure 6: speedup over LRU, single-thread, 2MB LLC\n");
    std::printf("%-16s %10s %10s %10s %10s\n", "benchmark", "Hawkeye",
                "Perceptron", "MPPPB", "MIN");
    std::vector<double> gh, gp, gm, gmin;
    for (const auto& r : rows) {
        std::printf("%-16s %10.3f %10.3f %10.3f %10.3f\n",
                    r.benchmark.c_str(), r.hawkeye, r.perceptron,
                    r.mpppb, r.min);
        gh.push_back(r.hawkeye);
        gp.push_back(r.perceptron);
        gm.push_back(r.mpppb);
        gmin.push_back(r.min);
    }
    std::printf("%-16s %10.3f %10.3f %10.3f %10.3f\n", "geomean",
                geomean(gh), geomean(gp), geomean(gm), geomean(gmin));

    // Paper-shape checks reported for EXPERIMENTS.md.
    unsigned mpppb_best = 0, above_lru = 0;
    double worst = 1e9;
    for (const auto& r : rows) {
        if (r.mpppb >= r.hawkeye && r.mpppb >= r.perceptron)
            ++mpppb_best;
        if (r.mpppb > 1.0)
            ++above_lru;
        worst = std::min(worst, r.mpppb);
    }
    std::printf("\n# MPPPB best-or-tied of realistic policies on %u/%u "
                "benchmarks; above LRU on %u; worst case %.3f of LRU\n",
                mpppb_best, trace::suiteSize(), above_lru, worst);
    std::printf("# MPPPB share of MIN headroom: %.2f (paper: 0.66)\n",
                (geomean(gm) - 1.0) / (geomean(gmin) - 1.0));
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return mrp::guardedMain("fig6_singlethread_speedup", run, argc, argv);
}
