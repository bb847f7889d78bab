/**
 * @file
 * Reproduces Figures 1 and 8: receiver operating characteristic
 * curves for SDBP, Perceptron, and the multiperspective predictor.
 *
 * Each predictor runs in measurement-only mode against an LRU LLC (no
 * decisions applied), its confidences resolved against ground truth
 * (reused-before-eviction vs evicted-untouched); curves are averaged
 * over the single-thread suite. The paper's headline claim is that in
 * the bypass-relevant false-positive band (25%..31%) multiperspective
 * sits above both prior predictors.
 */

#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.hpp"
#include "core/feature_sets.hpp"
#include "core/predictor.hpp"
#include "policy/perceptron.hpp"
#include "policy/sdbp.hpp"
#include "sim/roc_probe.hpp"
#include "sim/single_core.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"

namespace {

int
run(int, char**)
{
    using namespace mrp;

    const auto insts =
        bench::envCount<InstCount>("MRP_BENCH_INSTS", 2000000);
    const sim::SingleCoreConfig scfg;
    const cache::CacheGeometry geom(scfg.hierarchy.llcBytes,
                                    scfg.hierarchy.llcWays);

    // Averaged curves: accumulate per-benchmark (TPR, FPR) curves by
    // pooling all resolved predictions (the per-threshold pooled rates
    // are the access-weighted average of per-benchmark curves).
    std::vector<std::unique_ptr<sim::RocProbe>> probes;
    const char* names[3] = {"SDBP", "Perceptron", "Multiperspective"};

    std::vector<std::unique_ptr<policy::ReusePredictor>> preds;
    core::MultiperspectiveConfig mcfg;
    mcfg.features = core::featureSetTable1A();
    preds.push_back(
        std::make_unique<policy::SdbpPredictor>(geom, 1));
    preds.push_back(
        std::make_unique<policy::PerceptronPredictor>(geom, 1));
    preds.push_back(
        std::make_unique<core::MultiperspectivePredictor>(geom, 1, mcfg));
    auto probe = std::make_unique<sim::RocProbe>(geom, std::move(preds));

    const auto lru = sim::PolicyRegistry::make("LRU");
    for (unsigned b = 0; b < trace::suiteSize(); ++b) {
        const auto tr = trace::makeSuiteTrace(b, insts);
        trace::MaterializedTraceSource src(tr);
        sim::runSingleCore(src, lru, scfg, probe.get());
        std::fprintf(stderr, "# measured %s\n", tr.name().c_str());
    }

    std::printf("# Figure 8: ROC curves (pooled over %u benchmarks)\n",
                trace::suiteSize());
    std::printf("# %-18s %12s %12s %12s\n", "predictor", "threshold",
                "FPR", "TPR");
    for (std::size_t p = 0; p < probe->predictorCount(); ++p) {
        const auto curve = probe->roc(p).curve();
        // Thin the curve to ~64 printed points.
        const std::size_t step =
            curve.size() > 64 ? curve.size() / 64 : 1;
        for (std::size_t i = 0; i < curve.size(); i += step)
            std::printf("%-20s %12d %12.4f %12.4f\n", names[p],
                        curve[i].threshold,
                        curve[i].falsePositiveRate,
                        curve[i].truePositiveRate);
    }

    std::printf("\n# TPR at bypass-relevant FPR operating points\n");
    std::printf("# %-18s", "predictor");
    const double fprs[] = {0.20, 0.25, 0.28, 0.31, 0.40};
    for (const double f : fprs)
        std::printf(" TPR@%.2f", f);
    std::printf("\n");
    for (std::size_t p = 0; p < probe->predictorCount(); ++p) {
        std::printf("%-20s", names[p]);
        for (const double f : fprs)
            std::printf(" %8.4f", probe->roc(p).tprAtFpr(f));
        std::printf("\n");
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return mrp::guardedMain("fig8_roc", run, argc, argv);
}
