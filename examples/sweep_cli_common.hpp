/**
 * @file
 * Shared plumbing of the sweep CLIs (mrp_sweep_cli, mrp_broker_cli):
 * option parsing for the search space / corpus / strategy knobs, the
 * study assembly, and the report + stderr-summary emission. Both
 * binaries build the identical Study from identical flags — only the
 * execution vehicle differs (in-process runner vs. queue broker) —
 * which is what makes their reports byte-comparable, the check the
 * CI chaos job performs.
 */

#ifndef MRP_EXAMPLES_SWEEP_CLI_COMMON_HPP
#define MRP_EXAMPLES_SWEEP_CLI_COMMON_HPP

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "cache/geometry.hpp"
#include "cache/hierarchy.hpp"
#include "mrc/engine.hpp"
#include "mrc/objective.hpp"
#include "mrc/profile.hpp"
#include "runner/report.hpp"
#include "sweep/study.hpp"
#include "trace/spec.hpp"
#include "util/logging.hpp"
#include "util/parse_number.hpp"

namespace mrp::cli {

inline std::vector<std::string>
splitCommas(const std::string& s)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= s.size()) {
        const auto comma = s.find(',', pos);
        if (comma == std::string::npos) {
            out.push_back(s.substr(pos));
            break;
        }
        out.push_back(s.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

/** One streaming-family corpus member ("zipf[:THETA]", "blkio",
 * "phase") at the full corpus length. */
inline trace::TraceSpec
corpusFamilySpec(const std::string& name, InstCount insts,
                 std::uint64_t seed)
{
    if (name == "zipf" || name.rfind("zipf:", 0) == 0) {
        trace::ZipfParams p;
        p.instructions = insts;
        p.seed = seed;
        if (name.size() > 5) {
            p.theta = flagDouble("--corpus zipf:THETA", name.substr(5));
            p.name = name;
        }
        return trace::TraceSpec::zipf(p);
    }
    if (name == "blkio") {
        trace::BlockIoParams p;
        p.instructions = insts;
        p.seed = seed;
        return trace::TraceSpec::blockIo(p);
    }
    if (name == "phase") {
        trace::ZipfParams zp;
        zp.instructions = insts;
        zp.seed = seed;
        trace::BlockIoParams bp;
        bp.instructions = insts;
        bp.seed = seed + 1;
        std::vector<trace::TraceSpec> kids;
        kids.push_back(trace::TraceSpec::zipf(zp));
        kids.push_back(trace::TraceSpec::blockIo(bp));
        return trace::TraceSpec::phaseMix(
            "phase", insts, std::max<InstCount>(insts / 8, 1),
            std::move(kids));
    }
    fatal(ErrorCode::Config,
          "unknown --corpus family '" + name +
              "' (want zipf[:THETA], blkio, or phase)");
}

/** Every option shared by the sweep CLIs, at its default. */
struct SweepCliConfig
{
    std::string studyName = "mrp_sweep_cli";
    std::string strategyName = "genetic";
    std::string objectiveName = "geomean";
    std::string journalPath;
    std::string outPath;
    bool resume = false;
    unsigned generations = 5;
    unsigned population = 16;
    InstCount budgetInsts = 400000;
    std::vector<unsigned> workloads = {2,  7,  9,  12, 14,
                                       16, 18, 21, 25, 30};
    std::vector<std::string> corpusFamilies;
    bool decodeAhead = false;
    Addr llcKb = 2048;
    unsigned slots = 16;
    bool searchThresholds = false;
    bool searchSampler = false;
    std::uint64_t seed = 1;
    unsigned jobs = 0;
    // genetic knobs
    unsigned tournament = 3;
    double crossover = 0.9;
    double mutation = 0.08;
    unsigned elites = 2;
    // halving knobs
    unsigned initial = 16;
    unsigned eta = 2;
    unsigned rungs = 3;
    std::vector<sweep::GridAxis> gridAxes;
    // MRC engine knobs
    unsigned mrcRateLog2 = 0; //!< nonzero = SHARDS-sampled rung 0
    std::string mrcOutPath;   //!< write the corpus MrcProfile JSON
};

/** Usage text of the shared flags (callers append their own). */
inline const char* const kSweepUsage =
    "       [--strategy genetic|random|halving|grid]\n"
    "       [--generations N] [--population N] [--budget-insts N]\n"
    "       [--workloads I,J,...] [--corpus FAM[,FAM...]]\n"
    "       [--decode-ahead] [--llc-kb N] [--slots N]\n"
    "       [--search-thresholds] [--search-sampler]\n"
    "       [--objective geomean|mean] [--seed N] [--jobs N]\n"
    "       [--journal FILE] [--resume] [--out FILE] [--name NAME]\n"
    "       genetic: [--tournament N] [--crossover R]\n"
    "                [--mutation R] [--elites N]\n"
    "       halving: [--initial N] [--eta N] [--rungs N]\n"
    "                [--mrc-rung RATELOG2]\n"
    "       grid:    --grid GENE:V1,V2,...  (one axis each)\n"
    "       [--mrc-out FILE]  (corpus miss-ratio-curve profiles)\n";

/**
 * Consume argv[i] (advancing i past any value) if it is a shared
 * sweep option; false means the caller owns the flag.
 */
inline bool
parseSweepArg(SweepCliConfig& c, int argc, char** argv, int& i)
{
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
        fatalIf(i + 1 >= argc, ErrorCode::Config,
                "missing value for " + arg);
        return argv[++i];
    };
    if (arg == "--name") {
        c.studyName = next();
    } else if (arg == "--strategy") {
        c.strategyName = next();
    } else if (arg == "--objective") {
        c.objectiveName = next();
    } else if (arg == "--generations") {
        c.generations = flagInteger<unsigned>(arg, next());
    } else if (arg == "--population") {
        c.population = flagInteger<unsigned>(arg, next());
    } else if (arg == "--budget-insts") {
        c.budgetInsts = flagInteger<std::uint64_t>(arg, next());
        fatalIf(c.budgetInsts == 0,
                "--budget-insts must be positive");
    } else if (arg == "--workloads") {
        c.workloads.clear();
        for (const auto& w : splitCommas(next()))
            c.workloads.push_back(flagInteger<unsigned>(arg, w));
    } else if (arg == "--corpus") {
        c.corpusFamilies = splitCommas(next());
    } else if (arg == "--decode-ahead") {
        c.decodeAhead = true;
    } else if (arg == "--llc-kb") {
        c.llcKb = flagInteger<std::uint64_t>(arg, next());
        // Reject impossible geometries at the flag, not mid-study.
        const std::string why = cache::CacheGeometry::describeInvalid(
            c.llcKb * 1024, cache::HierarchyConfig{}.llcWays);
        fatalIf(!why.empty(), ErrorCode::Config,
                "--llc-kb " + std::to_string(c.llcKb) + ": " + why);
    } else if (arg == "--slots") {
        c.slots = flagInteger<unsigned>(arg, next());
    } else if (arg == "--search-thresholds") {
        c.searchThresholds = true;
    } else if (arg == "--search-sampler") {
        c.searchSampler = true;
    } else if (arg == "--seed") {
        c.seed = flagInteger<std::uint64_t>(arg, next());
    } else if (arg == "--jobs") {
        c.jobs = flagInteger<unsigned>(arg, next());
    } else if (arg == "--journal") {
        c.journalPath = next();
    } else if (arg == "--resume") {
        c.resume = true;
    } else if (arg == "--out") {
        c.outPath = next();
    } else if (arg == "--tournament") {
        c.tournament = flagInteger<unsigned>(arg, next());
    } else if (arg == "--crossover") {
        c.crossover = flagDouble(arg, next());
    } else if (arg == "--mutation") {
        c.mutation = flagDouble(arg, next());
    } else if (arg == "--elites") {
        c.elites = flagInteger<unsigned>(arg, next());
    } else if (arg == "--initial") {
        c.initial = flagInteger<unsigned>(arg, next());
    } else if (arg == "--eta") {
        c.eta = flagInteger<unsigned>(arg, next());
    } else if (arg == "--rungs") {
        c.rungs = flagInteger<unsigned>(arg, next());
    } else if (arg == "--mrc-rung") {
        c.mrcRateLog2 = flagInteger<unsigned>(arg, next());
        fatalIf(c.mrcRateLog2 == 0 || c.mrcRateLog2 >= 24,
                ErrorCode::Config,
                "--mrc-rung rate log2 must be in [1, 24)");
    } else if (arg == "--mrc-out") {
        c.mrcOutPath = next();
    } else if (arg == "--grid") {
        // GENE:V1,V2,... — one axis of the cross product.
        const std::string spec = next();
        const auto colon = spec.find(':');
        fatalIf(colon == std::string::npos,
                "--grid expects GENE:V1,V2,...");
        sweep::GridAxis axis;
        axis.gene = flagInteger<std::size_t>(arg, spec.substr(0, colon));
        for (const auto& v : splitCommas(spec.substr(colon + 1)))
            axis.values.push_back(flagInteger<int>(arg, v));
        c.gridAxes.push_back(std::move(axis));
    } else {
        return false;
    }
    return true;
}

/**
 * The assembled study ingredients. Heap-held so references between
 * them (strategy -> space, objective -> evaluator) stay valid for
 * the setup's lifetime.
 */
struct StudySetup
{
    sweep::SearchSpace space;
    std::shared_ptr<sweep::CorpusEvaluator> evaluator;
    std::unique_ptr<sweep::Objective> objective;
    std::unique_ptr<sweep::Strategy> strategy;
    sweep::StudyConfig studyConfig;
};

/** Build the study exactly as both CLIs must (see file comment);
 * throws FatalError(Config) on a bad combination, returns null on a
 * plain usage error (unknown strategy/objective name). */
inline std::unique_ptr<StudySetup>
buildStudySetup(const SweepCliConfig& c)
{
    fatalIf(c.workloads.empty(), "--workloads list is empty");
    auto s = std::make_unique<StudySetup>();
    s->space.featureSlots = c.slots;
    s->space.searchThresholds = c.searchThresholds;
    s->space.searchSampler = c.searchSampler;

    sweep::CorpusConfig corpus;
    corpus.workloads = c.workloads;
    for (std::size_t f = 0; f < c.corpusFamilies.size(); ++f)
        corpus.corpus.push_back(corpusFamilySpec(
            c.corpusFamilies[f], c.budgetInsts, c.seed + f));
    corpus.fullInstructions = c.budgetInsts;
    corpus.sim.hierarchy.llcBytes = c.llcKb * 1024;
    corpus.jobs = c.jobs;
    corpus.openOptions.decodeAhead = c.decodeAhead;
    s->evaluator = std::make_shared<sweep::CorpusEvaluator>(corpus);
    if (c.objectiveName != "mean" && c.objectiveName != "geomean")
        return nullptr;
    const auto aggregate =
        c.objectiveName == "mean"
            ? sweep::CorpusMpkiObjective::Aggregate::Mean
            : sweep::CorpusMpkiObjective::Aggregate::Geomean;
    if (c.mrcRateLog2 > 0) {
        fatalIf(c.strategyName != "halving", ErrorCode::Config,
                "--mrc-rung needs --strategy halving (it flags the "
                "halving ladder's rung 0 for sampled evaluation)");
        s->objective = std::make_unique<mrc::SampledRungObjective>(
            s->evaluator, c.mrcRateLog2, aggregate);
    } else {
        s->objective = std::make_unique<sweep::CorpusMpkiObjective>(
            s->evaluator, aggregate);
    }

    if (c.strategyName == "genetic") {
        sweep::GeneticStrategy::Config gc;
        gc.generations = c.generations;
        gc.population = c.population;
        gc.tournament = c.tournament;
        gc.crossoverRate = c.crossover;
        gc.mutationRate = c.mutation;
        gc.elites = c.elites;
        // Start from the paper-default configuration so the search
        // can only improve on it (elitism keeps the incumbent alive).
        // A space with fewer slots than the paper's 16 features can't
        // hold the incumbent; those searches start purely random.
        if (s->space.base.predictor.features.size() <=
            s->space.featureSlots)
            gc.seeds.push_back(s->space.encode(s->space.base));
        s->strategy = std::make_unique<sweep::GeneticStrategy>(
            s->space, gc, c.seed);
    } else if (c.strategyName == "random") {
        s->strategy = std::make_unique<sweep::RandomStrategy>(
            s->space, c.generations, c.population, c.seed);
    } else if (c.strategyName == "halving") {
        sweep::HalvingStrategy::Config hc;
        hc.initial = c.initial;
        hc.eta = c.eta;
        hc.rungs = c.rungs;
        hc.fullInstructions = c.budgetInsts;
        hc.mrcRateLog2 = c.mrcRateLog2;
        s->strategy = std::make_unique<sweep::HalvingStrategy>(
            s->space, hc, c.seed);
    } else if (c.strategyName == "grid") {
        fatalIf(c.gridAxes.empty(),
                "--strategy grid needs at least one --grid axis");
        s->strategy = std::make_unique<sweep::GridStrategy>(
            s->space, s->space.encode(s->space.base), c.gridAxes);
    } else {
        return nullptr;
    }

    s->studyConfig.name = c.studyName;
    s->studyConfig.seed = c.seed;
    s->studyConfig.jobs = c.jobs;
    s->studyConfig.journalPath = c.journalPath;
    if (c.resume) {
        fatalIf(c.journalPath.empty(), "--resume requires --journal");
        std::ifstream probe(c.journalPath);
        if (!probe)
            std::fprintf(stderr,
                         "note: journal %s not found; starting cold\n",
                         c.journalPath.c_str());
        s->studyConfig.resume = true;
    }
    return s;
}

/**
 * --mrc-out: one pass of the MRC engine over the full-length corpus
 * (shards-adj, the sweep's --mrc-rung rate when set), written as the
 * deterministic mrp.mrc.v1 corpus document. The study's L1/L2 sizing
 * is reused so profiles and simulations see the same filtered stream.
 */
inline void
maybeWriteMrcProfiles(StudySetup& s, const SweepCliConfig& c)
{
    if (c.mrcOutPath.empty())
        return;
    mrc::MrcConfig mc;
    mc.hierarchy = s.evaluator->config().sim.hierarchy;
    if (c.mrcRateLog2 > 0)
        mc.rateLog2 = c.mrcRateLog2;
    const auto profiles =
        mrc::profileCorpus(s.evaluator->specs(0), mc, c.jobs,
                           s.evaluator->config().openOptions);
    runner::writeFile(c.mrcOutPath, mrc::corpusJson(profiles));
    std::fprintf(stderr, "wrote %s\n", c.mrcOutPath.c_str());
}

/** Write the deterministic report (stdout or --out) and the human
 * summary (stderr). Returns the process exit code. */
inline int
emitStudyReport(const sweep::Study& study,
                const sweep::StudyResult& result,
                const SweepCliConfig& c)
{
    const std::string report = study.reportJson(result);
    if (c.outPath.empty()) {
        std::fputs(report.c_str(), stdout);
    } else {
        runner::writeFile(c.outPath, report);
        std::fprintf(stderr, "wrote %s\n", c.outPath.c_str());
    }

    for (const auto& g : result.generations)
        std::fprintf(stderr,
                     "gen %u: %zu candidates (%zu simulated, %zu "
                     "cached), best fitness %.4f, mean %.4f\n",
                     g.generation, g.evaluations, g.simulations,
                     g.cacheHits, g.bestFitness, g.meanFitness);
    if (result.hasBest) {
        const auto& b = result.candidates[result.bestId];
        std::fprintf(
            stderr,
            "best: candidate %zu, corpus MPKI %.4f, %llu "
            "predictor bits\n",
            b.id, b.mpki,
            static_cast<unsigned long long>(b.predictorBits));
        return 0;
    }
    std::fprintf(stderr, "no successful candidate\n");
    return 1;
}

} // namespace mrp::cli

#endif // MRP_EXAMPLES_SWEEP_CLI_COMMON_HPP
