/**
 * @file
 * Reproduces Figure 7: single-thread LLC demand MPKI per benchmark
 * for LRU, Hawkeye, Perceptron, MPPPB, and MIN (paper means: LRU >
 * Hawkeye 3.8 > Perceptron 3.7 > MPPPB 3.5 > MIN; our synthetic suite
 * is more memory-intensive so absolute values are higher — the
 * ordering is the target).
 *
 * The benchmark × policy product runs through the parallel
 * ExperimentRunner (--jobs N / MRP_BENCH_JOBS).
 */

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

    std::printf("# Figure 7: LLC demand MPKI, single-thread, 2MB LLC\n");
    std::printf("%-16s", "benchmark");
    for (const auto& p : policies)
        std::printf(" %10s", p.c_str());
    std::printf("\n");

    const std::size_t stride = policies.size();
    std::vector<std::vector<double>> mpkis(policies.size());
    for (unsigned b = 0; b < trace::suiteSize(); ++b) {
        std::printf("%-16s", suite[b].name().c_str());
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const double m = set.results[b * stride + p].mpki;
            mpkis[p].push_back(m);
            std::printf(" %10.2f", m);
        }
        std::printf("\n");
    }

    std::printf("%-16s", "arith.mean");
    for (const auto& col : mpkis)
        std::printf(" %10.2f", mean(col));
    std::printf("\n");
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return mrp::guardedMain("fig7_singlethread_mpki", run, argc, argv);
}
