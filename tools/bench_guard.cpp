/**
 * @file
 * Performance-regression guard CLI over BENCH_*.json documents.
 *
 * Diffs a freshly produced candidate BENCH document (bench_harness or
 * `mrp_sim_cli --prof-out`) against a committed baseline. Phases whose
 * inclusive time grew beyond the tolerance, throughput rates that
 * shrank beyond it, and runs or phases missing from the candidate are
 * regressions.
 *
 * Usage:
 *   bench_guard --baseline FILE --candidate FILE
 *               [--tolerance FRAC] [--min-seconds S]
 *               [--no-throughput] [--warn-only]
 *
 * Exit status: 0 = within tolerance, 1 = regression (0 with
 * --warn-only, for CI smoke jobs on noisy shared runners),
 * 2 = usage/parse error.
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "prof/bench_guard.hpp"
#include "util/logging.hpp"
#include "util/parse_number.hpp"

namespace {

using namespace mrp;

int
usage()
{
    std::fprintf(stderr,
                 "usage: bench_guard --baseline FILE --candidate FILE\n"
                 "                   [--tolerance FRAC] "
                 "[--min-seconds S]\n"
                 "                   [--no-throughput] [--warn-only]\n");
    return 2;
}

std::string
slurp(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    fatalIf(!is, ErrorCode::Io, "cannot open for reading: " + path);
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

int
run(int argc, char** argv)
{
    std::string baseline_path;
    std::string candidate_path;
    prof::GuardOptions opts;
    bool warn_only = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            fatalIf(i + 1 >= argc, "missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--baseline") {
            baseline_path = next();
        } else if (arg == "--candidate") {
            candidate_path = next();
        } else if (arg == "--tolerance") {
            opts.tolerance = flagDouble(arg, next());
            fatalIf(opts.tolerance <= 0.0,
                    "--tolerance must be positive");
        } else if (arg == "--min-seconds") {
            opts.minSeconds = flagDouble(arg, next());
        } else if (arg == "--no-throughput") {
            opts.checkThroughput = false;
        } else if (arg == "--warn-only") {
            warn_only = true;
        } else {
            return usage();
        }
    }
    if (baseline_path.empty() || candidate_path.empty())
        return usage();

    const auto baseline =
        json::parseJson(slurp(baseline_path), baseline_path);
    const auto candidate =
        json::parseJson(slurp(candidate_path), candidate_path);
    const auto result = prof::compare(baseline, candidate, opts);
    std::fputs(prof::formatFindings(result, opts).c_str(), stdout);
    if (result.ok())
        return 0;
    if (warn_only) {
        std::fprintf(stderr,
                     "bench_guard: regression detected but "
                     "--warn-only set; exiting 0\n");
        return 0;
    }
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    try {
        return run(argc, argv);
    } catch (const FatalError& e) {
        std::fprintf(stderr, "bench_guard: %s [%s]\n", e.what(),
                     errorCodeName(e.code()));
        return 2;
    }
}
