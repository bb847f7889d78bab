/**
 * @file
 * Configuration-search driver: optimize MPPPB predictor configurations
 * over the synthetic training corpus with any of the sweep strategies
 * (genetic, random, grid, successive halving), producing the
 * deterministic study report.
 *
 * Usage:
 *   mrp_sweep_cli [shared sweep flags — see sweep_cli_common.hpp]
 *                 [--prof-out FILE]
 *
 * --corpus replaces the suite-index training corpus with streaming
 * generator families ("zipf", "zipf:THETA", "blkio", "phase"): every
 * candidate evaluation streams its workloads chunk by chunk instead of
 * materializing them, so corpus length is bounded by disk-free math
 * only, and successive-halving budget rungs regenerate each family at
 * the rung length (TraceSpec::withInstructions). --decode-ahead
 * overlaps generation/decoding with simulation; like every delivery
 * knob it cannot change the report.
 *
 * The report (stdout, or --out FILE) is a pure function of the search
 * space, strategy, seed, and objective — no wall-clock fields, no
 * dependence on --jobs. --journal makes the study crash-safe: every
 * evaluated candidate is appended to an fsync'd checkpoint journal and
 * the in-flight generation's raw runs stream into FILE.runs, so a
 * killed sweep rerun with --resume replays journaled fitnesses
 * (completed work costs zero simulations) and emits a byte-identical
 * report. A fitness cache keyed by canonical genome guarantees
 * duplicate candidates never re-simulate. --seed drives the strategy's
 * RNG and is stamped into every run and the report, so a study is
 * replayable from its report alone.
 *
 * mrp_broker_cli runs the identical study through the distributed
 * queue broker; their reports are byte-comparable.
 *
 * --prof-out FILE wraps the study in a phase-timer Profiler and writes
 * a BENCH_*.json document (schema "mrp-bench-v1") with the
 * sweep.generation / sweep.ask / sweep.simulate / sweep.tell phase
 * tree and total simulated throughput.
 */

#include <cstdio>
#include <memory>
#include <string>

#include "prof/export.hpp"
#include "sweep_cli_common.hpp"

namespace {

using namespace mrp;

int
usage()
{
    std::fprintf(stderr, "usage: mrp_sweep_cli [--prof-out FILE]\n%s",
                 cli::kSweepUsage);
    return 2;
}

int
run(int argc, char** argv)
{
    cli::SweepCliConfig cfg;
    std::string prof_out_path;
    for (int i = 1; i < argc; ++i) {
        if (cli::parseSweepArg(cfg, argc, argv, i))
            continue;
        const std::string arg = argv[i];
        if (arg == "--prof-out") {
            fatalIf(i + 1 >= argc, "missing value for " + arg);
            prof_out_path = argv[++i];
        } else {
            return usage();
        }
    }

    const auto setup = cli::buildStudySetup(cfg);
    if (!setup)
        return usage();
    sweep::Study study(setup->space, *setup->strategy,
                       *setup->objective, setup->studyConfig);

    sweep::StudyResult result;
    if (!prof_out_path.empty()) {
        prof::Profiler profiler;
        {
            const prof::Attach attach(profiler);
            result = study.run();
        }
        auto profile = profiler.finish();
        std::uint64_t insts = 0, accesses = 0;
        for (const auto& o : result.candidates) {
            if (o.cached)
                continue;
            insts += o.instructions;
            accesses += o.llcDemandAccesses;
        }
        profile.setThroughput(insts, accesses);
        prof::BenchRun br;
        br.label = "study/" + cfg.strategyName;
        br.benchmark = setup->studyConfig.name;
        br.policy = setup->strategy->name();
        br.profile = std::move(profile);
        runner::writeFile(prof_out_path,
                          prof::benchJson("sweep", {br},
                                          prof::machineInfo(),
                                          prof::gitSha()));
        std::fprintf(stderr, "wrote %s\n", prof_out_path.c_str());
    } else {
        result = study.run();
    }

    cli::maybeWriteMrcProfiles(*setup, cfg);
    return cli::emitStudyReport(study, result, cfg);
}

} // namespace

int
main(int argc, char** argv)
{
    return guardedMain("mrp_sweep_cli", run, argc, argv);
}
