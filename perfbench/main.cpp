/**
 * @file
 * perfbench: the repository benchmark. One process runs one workload
 * for a fixed number of seconds and prints every metric by name with
 * its unit, then one JSON line:
 *   {"correct": ..., "attempted": N, "failed": F, "metrics": {...}}
 * holding the end-to-end metrics (--trace 0) or the per-layer ones
 * (--trace 1).
 *
 *   perfbench --workload st_llc|st_l1|mc_mix|sweep_ga --seed N
 *             --seconds S --trace 0|1 --work-dir DIR --expected-dir DIR
 *             [--write-expected] [--stall-ns N]
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::RunReport;

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --expected-dir DIR "
                 "[--write-expected] [--stall-ns N]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
number(const std::string& flag, const char* text)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0')
        usage(flag + " needs a whole number, got '" + text + "'");
    return v;
}

Options
parse(int argc, char** argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--write-expected") {
            o.writeExpected = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const char* v = argv[++i];
        if (a == "--workload")
            o.workload = v;
        else if (a == "--seed")
            o.seed = number(a, v);
        else if (a == "--seconds")
            o.seconds = static_cast<double>(number(a, v));
        else if (a == "--trace")
            o.trace = number(a, v) != 0;
        else if (a == "--work-dir")
            o.workDir = v;
        else if (a == "--expected-dir")
            o.expectedDir = v;
        else if (a == "--stall-ns")
            o.stallNs = number(a, v);
        else
            usage("unknown flag " + a);
    }
    bool known = false;
    for (const auto& w : perfbench::workloadNames())
        known = known || w == o.workload;
    if (!known)
        usage("unknown workload '" + o.workload + "'");
    return o;
}

double
finite(double v)
{
    return std::isfinite(v) ? v : 0.0;
}

void
print(const Options& opt, const RunReport& rep)
{
    std::printf("perfbench %s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    for (const Metric& m : rep.metrics)
        std::printf("%-6s %-30s %14.6f %-8s %s\n",
                    m.layer ? "layer" : "e2e", m.name.c_str(),
                    finite(m.value), m.unit.c_str(), m.note.c_str());
    for (const auto& n : rep.notes)
        std::printf("note: %s\n", n.c_str());
    for (const auto& f : rep.failures)
        std::printf("FAILED: %s\n", f.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                rep.failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed));
    const char* sep = "";
    for (const Metric& m : rep.metrics) {
        if (m.layer != opt.trace)
            continue;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                    m.name.c_str(), finite(m.value), m.unit.c_str());
        sep = ", ";
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char** argv)
{
    const Options opt = parse(argc, argv);
    try {
        std::filesystem::create_directories(opt.workDir);
        perfbench::CounterTable counters;
        const RunReport rep = perfbench::runWorkload(opt, counters);
        print(opt, rep);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    return 0;
}
