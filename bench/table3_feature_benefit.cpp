/**
 * @file
 * Reproduces Table 3: for each held-out workload (standing in for the
 * SPEC CPU 2017 simpoints that arrived after the feature design), run
 * MPPPB with the Table 1(b) features 17 times — full set, then
 * leave-one-out per feature — and report, per workload, the feature
 * whose removal increases MPKI the most (the workload's dominant
 * feature), with the MPKI with/without it and the percent increase.
 *
 * The workload × feature-ablation product runs through the parallel
 * ExperimentRunner (--jobs N / MRP_BENCH_JOBS).
 */

#include "bench_util.hpp"
#include "core/feature_sets.hpp"
#include "core/mpppb.hpp"

namespace {

int
run(int argc, char** argv)
{
    using namespace mrp;
    const InstCount insts = bench::envCount("MRP_BENCH_INSTS", 1500000);

    core::MpppbConfig base_cfg = core::singleThreadMpppbConfig();
    base_cfg.predictor.features = core::featureSetTable1B();
    const auto& features = base_cfg.predictor.features;

    /** Leave-one-out config with thresholds scaled to the smaller sum
     * of feature outputs. */
    const auto ablated = [&](std::size_t f) {
        core::MpppbConfig mcfg = base_cfg;
        mcfg.predictor.features = core::without(features, f);
        const double scale =
            static_cast<double>(mcfg.predictor.features.size()) /
            static_cast<double>(features.size());
        mcfg.thresholds.tauBypass =
            static_cast<int>(mcfg.thresholds.tauBypass * scale);
        for (auto& t : mcfg.thresholds.tau)
            t = static_cast<int>(t * scale);
        mcfg.thresholds.tauNoPromote =
            static_cast<int>(mcfg.thresholds.tauNoPromote * scale);
        return mcfg;
    };

    std::vector<trace::Trace> held_out;
    held_out.reserve(trace::heldOutSize());
    for (unsigned w = 0; w < trace::heldOutSize(); ++w)
        held_out.push_back(trace::makeHeldOutTrace(w, insts));

    // Per workload: the full set, then one leave-one-out per feature.
    std::vector<runner::RunRequest> batch;
    batch.reserve(held_out.size() * (features.size() + 1));
    for (const auto& tr : held_out) {
        batch.push_back(runner::RunRequest::singleCore(
            trace::TraceSpec::borrowed(tr),
            runner::PolicySpec::custom(
                "MPPPB-1B", sim::makeMpppbFactory(base_cfg))));
        for (std::size_t f = 0; f < features.size(); ++f)
            batch.push_back(runner::RunRequest::singleCore(
                trace::TraceSpec::borrowed(tr),
                runner::PolicySpec::custom(
                    "MPPPB-1B-w/o-" + features[f].toString(),
                    sim::makeMpppbFactory(ablated(f)))));
    }

    const runner::ExperimentRunner pool(bench::jobsFromArgs(argc, argv));
    const auto set = pool.run(batch);
    bench::reportBatch(set);

    std::printf("# Table 3: dominant feature per held-out workload "
                "(Table 1(b) set)\n");
    std::printf("%-18s %-20s %10s %10s %9s\n", "workload", "feature",
                "without", "with", "increase");

    const std::size_t stride = features.size() + 1;
    for (unsigned w = 0; w < trace::heldOutSize(); ++w) {
        const std::size_t base = w * stride;
        const double with_all = set.results[base].mpki;
        double worst_without = with_all;
        std::size_t dominant = 0;
        for (std::size_t f = 0; f < features.size(); ++f) {
            const double m = set.results[base + 1 + f].mpki;
            if (m > worst_without) {
                worst_without = m;
                dominant = f;
            }
        }
        const double pct =
            with_all > 0.0
                ? 100.0 * (worst_without - with_all) / with_all
                : 0.0;
        std::printf("%-18s %-20s %10.2f %10.2f %8.2f%%\n",
                    held_out[w].name().c_str(),
                    worst_without > with_all
                        ? features[dominant].toString().c_str()
                        : "(none helps)",
                    worst_without, with_all, pct);
    }
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return mrp::guardedMain("table3_feature_benefit", run, argc, argv);
}
