/**
 * @file
 * Canonical benchmark harness: run a small, fixed set of profiled
 * simulations and emit the BENCH_<name>.json artifact that
 * tools/bench_guard diffs against a committed baseline.
 *
 * Two profiles are captured per invocation:
 *  - a harness-level profile on the main thread covering setup
 *    (trace generation), reported as the "harness" run; and
 *  - one per-simulation profile (phase tree, user/sys split, RSS,
 *    throughput) per (benchmark, policy) cell, reported under
 *    "<benchmark>/<policy>".
 *
 * The default workload set is deliberately LLC-heavy (thrashing,
 * random-access, and mixed-locality generators whose accesses fall
 * through L1/L2), so the `llc.*` phases dominate the measured window
 * and the phase tree actually attributes where simulation time goes.
 *
 * Usage:
 *   bench_harness [--name NAME] [--out FILE] [--insts N]
 *                 [--benchmark NAME[,NAME...]]
 *                 [--policy NAME[,NAME...]] [--mrc]
 *
 * Defaults: name "smoke", out "BENCH_<name>.json", 400k instructions
 * (or MRP_BENCH_INSTS), benchmarks thrash.2x,gups.2x,mixpc.hi,
 * policies LRU,MPPPB. Prints per-run throughput and llc.* coverage of
 * the measured window, and exits nonzero if any run fails.
 *
 * --mrc switches the cell axis from replacement policies to
 * miss-ratio-curve construction: one profiled src/mrc pass per
 * (benchmark, mode) cell over exact/shards/shards-adj, throughput =
 * trace instructions consumed per second. The artifact (default name
 * "mrc" -> BENCH_mrc.json) guards the one-pass engine's cost the same
 * way the simulation cells guard the simulator's.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "mrc/engine.hpp"
#include "prof/export.hpp"
#include "prof/profiler.hpp"
#include "runner/report.hpp"
#include "trace/source.hpp"
#include "util/logging.hpp"

namespace {

using namespace mrp;

std::vector<std::string>
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

unsigned
suiteIndexOf(const std::string& name)
{
    for (unsigned i = 0; i < trace::suiteSize(); ++i)
        if (trace::suiteName(i) == name)
            return i;
    fatalIf(true, ErrorCode::Config,
            "unknown suite benchmark: " + name);
    return 0; // unreachable
}

/** One profiled MRC pass per (trace, mode) cell; appends BenchRuns. */
bool
runMrcCells(const std::vector<trace::Trace>& traces,
            std::vector<prof::BenchRun>& bench_runs)
{
    for (const auto& t : traces) {
        for (const auto mode :
             {mrc::MrcMode::Exact, mrc::MrcMode::Shards,
              mrc::MrcMode::ShardsAdj}) {
            mrc::MrcConfig cfg;
            cfg.mode = mode;
            trace::MaterializedTraceSource src(t);
            prof::Profiler profiler;
            mrc::MrcProfile p;
            {
                const prof::Attach attach(profiler);
                p = mrc::buildProfile(src, cfg);
            }
            const std::string label =
                t.name() + "/mrc-" + mrc::mrcModeName(mode);
            prof::BenchRun br;
            br.label = label;
            br.benchmark = t.name();
            br.policy = std::string("mrc-") + mrc::mrcModeName(mode);
            br.profile = profiler.finish();
            br.profile.setThroughput(t.instructions(),
                                     p.demandSamples);
            std::printf("%-24s %12.0f %12.0f %10s\n", label.c_str(),
                        br.profile.instsPerSecond,
                        br.profile.accessesPerSecond, "-");
            bench_runs.push_back(std::move(br));
        }
    }
    return false; // a failed pass throws FatalError instead
}

int
runHarness(int argc, char** argv)
{
    std::string name = "smoke";
    bool mrc_cells = false;
    std::string out_path;
    auto insts =
        static_cast<InstCount>(bench::envCount("MRP_BENCH_INSTS",
                                               400000));
    std::string benchmarks = "thrash.2x,gups.2x,mixpc.hi";
    std::string policies = "LRU,MPPPB";

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            fatalIf(i + 1 >= argc, "missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--name") {
            name = next();
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--insts") {
            insts = flagInteger<InstCount>(arg, next());
        } else if (arg == "--benchmark") {
            benchmarks = next();
        } else if (arg == "--policy") {
            policies = next();
        } else if (arg == "--mrc") {
            mrc_cells = true;
        } else {
            std::fprintf(stderr,
                         "usage: bench_harness [--name NAME] "
                         "[--out FILE] [--insts N]\n"
                         "                     [--benchmark LIST] "
                         "[--policy LIST] [--mrc]\n");
            return 2;
        }
    }
    if (mrc_cells && name == "smoke")
        name = "mrc";
    if (out_path.empty())
        out_path = "BENCH_" + name + ".json";

    std::vector<prof::BenchRun> bench_runs;

    // Harness-level profile: setup work (trace generation) on the
    // main thread, so BENCH documents also track fixture cost.
    prof::Profiler harness_prof;
    std::vector<trace::Trace> traces;
    InstCount generated = 0;
    {
        prof::Attach attach(harness_prof);
        for (const auto& b : splitCommas(benchmarks)) {
            traces.push_back(
                trace::makeSuiteTrace(suiteIndexOf(b), insts));
            generated += traces.back().instructions();
        }
    }
    {
        prof::BenchRun hr;
        hr.label = "harness";
        hr.benchmark = "setup";
        hr.policy = "-";
        hr.profile = harness_prof.finish();
        hr.profile.setThroughput(generated, 0);
        bench_runs.push_back(std::move(hr));
    }

    // One profiled simulation per (benchmark, policy) cell, executed
    // sequentially on this thread so cells never contend for the core
    // and the numbers stay comparable run to run.
    runner::RunnerOptions ropts;
    ropts.profile = true;
    std::printf("%-24s %12s %12s %10s\n", "run", "insts/sec",
                "accesses/sec", "llc cover");
    bool failed = false;
    if (mrc_cells) {
        failed = runMrcCells(traces, bench_runs);
        runner::writeFile(out_path,
                          prof::benchJson(name, bench_runs,
                                          prof::machineInfo(),
                                          prof::gitSha()));
        std::fprintf(stderr, "wrote %s (%zu runs)\n",
                     out_path.c_str(), bench_runs.size());
        return failed ? 1 : 0;
    }
    std::size_t index = 0;
    for (const auto& t : traces) {
        for (const auto& p : splitCommas(policies)) {
            const auto req = runner::RunRequest::singleCore(
                trace::TraceSpec::borrowed(t),
                runner::PolicySpec::byName(p));
            const auto r =
                runner::ExperimentRunner::runOne(req, index++, ropts);
            const std::string label = t.name() + "/" + p;
            if (!r.ok()) {
                std::printf("%-24s FAILED [%s]: %s\n", label.c_str(),
                            errorCodeName(r.errorCode),
                            r.error.c_str());
                failed = true;
                continue;
            }
            panicIf(!r.profile, "profiled run returned no profile");
            const double cover = prof::llcCoverage(r.profile->root);
            std::printf("%-24s %12.0f %12.0f %9.1f%%\n", label.c_str(),
                        r.profile->instsPerSecond,
                        r.profile->accessesPerSecond, cover * 100.0);
            prof::BenchRun br;
            br.label = label;
            br.benchmark = t.name();
            br.policy = p;
            br.profile = *r.profile;
            bench_runs.push_back(std::move(br));
        }
    }

    runner::writeFile(out_path,
                      prof::benchJson(name, bench_runs,
                                      prof::machineInfo(),
                                      prof::gitSha()));
    std::fprintf(stderr, "wrote %s (%zu runs)\n", out_path.c_str(),
                 bench_runs.size());
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char** argv)
{
    return guardedMain("bench_harness", runHarness, argc, argv);
}
