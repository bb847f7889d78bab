/**
 * @file
 * Reproduces Figure 3: the distribution of average MPKI over randomly
 * chosen sets of 16 features, sorted descending, with the LRU and MIN
 * reference lines and the refined result. The paper evaluates 4,000
 * random sets on 99 segments (10 CPU-years of search); the default
 * here is a scaled sample (MRP_BENCH_SETS, MRP_BENCH_INSTS to
 * enlarge). The reproduction target is the *shape*: random sets span
 * from worse-than-LRU to roughly halfway between LRU and MIN, and
 * refinement adds a modest further improvement.
 *
 * Runs as two sweep studies on the shared corpus evaluator: a
 * one-generation list study of random 16-feature sets drawn the
 * paper's way (every slot populated via FeatureSpec::random — a plain
 * RandomStrategy draw would disable about half the slots and collapse
 * the scatter), then a genetic refinement seeded with the best random
 * genome (elitism makes the refined result monotone — it can only
 * match or beat the seed, like the paper's hill-climb). Candidates
 * fan out on the ExperimentRunner (--jobs N or MRP_BENCH_JOBS).
 */

#include <algorithm>

#include "bench_util.hpp"
#include "core/feature_sets.hpp"
#include "sweep/study.hpp"

namespace {

int
run(int argc, char** argv)
{
    using namespace mrp;
    const auto n_sets = static_cast<unsigned>(
        bench::envCount("MRP_BENCH_SETS", 48));
    const auto refine_evals = static_cast<unsigned>(
        bench::envCount("MRP_BENCH_CLIMB", 48));
    const unsigned jobs = bench::jobsFromArgs(argc, argv);

    sweep::CorpusConfig corpus;
    corpus.workloads = {2, 7, 9, 12, 14, 16, 18, 21, 25, 30};
    corpus.fullInstructions =
        bench::envCount("MRP_BENCH_INSTS", 600000);
    corpus.jobs = jobs;
    const auto evaluator =
        std::make_shared<sweep::CorpusEvaluator>(corpus);
    const double lru = mean(evaluator->policyMpkis("LRU"));
    const double min = mean(evaluator->policyMpkis("MIN"));

    sweep::SearchSpace space; // 16 feature slots, paper-default base
    sweep::CorpusMpkiObjective objective(
        evaluator, sweep::CorpusMpkiObjective::Aggregate::Mean);

    // Stage 1: the random scatter — n_sets full 16-feature sets (the
    // paper's §5.1 draw), as one single-generation list study.
    Rng rng(0xF16);
    std::vector<sweep::Candidate> random_sets;
    random_sets.reserve(n_sets);
    for (unsigned i = 0; i < n_sets; ++i) {
        core::MpppbConfig mcfg = space.base;
        mcfg.predictor.features.clear();
        for (unsigned f = 0; f < space.featureSlots; ++f)
            mcfg.predictor.features.push_back(
                core::FeatureSpec::random(rng));
        random_sets.push_back({space.encodeClamped(mcfg), 0});
    }
    sweep::ListStrategy random_strategy(std::move(random_sets));
    sweep::StudyConfig rcfg;
    rcfg.name = "fig3-random";
    rcfg.seed = 0xF16;
    rcfg.jobs = jobs;
    sweep::Study random_study(space, random_strategy, objective, rcfg);
    const auto random_result = random_study.run();
    fatalIf(!random_result.hasBest, "random stage produced no result");
    const auto& seed_candidate =
        random_result.candidates[random_result.bestId];

    std::vector<double> scatter;
    for (const auto& o : random_result.candidates)
        if (o.ok)
            scatter.push_back(o.mpki);
    std::sort(scatter.begin(), scatter.end(), std::greater<double>());

    // Stage 2: genetic refinement from the best random genome.
    const unsigned population = 8;
    sweep::GeneticStrategy::Config gc;
    gc.population = population;
    gc.generations = std::max(1u, refine_evals / population);
    gc.seeds.push_back(seed_candidate.candidate.genome);
    sweep::GeneticStrategy genetic(space, gc, 0xC1B);
    sweep::StudyConfig gcfg;
    gcfg.name = "fig3-refine";
    gcfg.seed = 0xC1B;
    gcfg.jobs = jobs;
    sweep::Study refine_study(space, genetic, objective, gcfg);
    const auto refine_result = refine_study.run();
    fatalIf(!refine_result.hasBest, "refinement produced no result");
    const auto& refined =
        refine_result.candidates[refine_result.bestId];

    std::printf("# Figure 3: random feature sets sorted by MPKI "
                "(%u sets, %zu refinement evals)\n",
                n_sets, refine_result.candidates.size());
    std::printf("%-8s %12s %12s %12s %12s\n", "rank", "random", "LRU",
                "MIN", "refined");
    for (std::size_t i = 0; i < scatter.size(); ++i)
        std::printf("%-8zu %12.3f %12.3f %12.3f %12.3f\n", i,
                    scatter[i], lru, min, refined.mpki);

    std::printf("\n# LRU %.3f | best random %.3f | refined %.3f | "
                "MIN %.3f\n",
                lru, seed_candidate.mpki, refined.mpki, min);
    const auto best_cfg = space.decode(refined.candidate.genome);
    std::printf("# refined feature set:\n%s",
                core::formatFeatureSet(best_cfg.predictor.features)
                    .c_str());
    return 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return mrp::guardedMain("fig3_feature_search", run, argc, argv);
}
