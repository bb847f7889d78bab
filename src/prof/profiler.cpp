#include "prof/profiler.hpp"

#include <algorithm>
#include <mutex>

#include <sys/resource.h>

#include "util/logging.hpp"

namespace mrp::prof {

namespace detail {
constinit thread_local Profiler* tlsProfiler = nullptr;
} // namespace detail

namespace {

using detail::tlsProfiler;

std::mutex siteMutex;
std::vector<const char*> siteLabels;

/** This thread's user/system CPU time in seconds. */
void
threadCpu(double* user, double* sys)
{
    rusage ru{};
#ifdef RUSAGE_THREAD
    ::getrusage(RUSAGE_THREAD, &ru);
#else
    ::getrusage(RUSAGE_SELF, &ru);
#endif
    *user = static_cast<double>(ru.ru_utime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    *sys = static_cast<double>(ru.ru_stime.tv_sec) +
           static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
}

long
processMaxRssKb()
{
    rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss; // kilobytes on Linux
}

/** Minimum back-to-back TSC read distance: the cost every timed scope
 * entry pays for its own clock reads, compensated out at finish(). */
std::uint64_t
calibrateTickCost()
{
    std::uint64_t best = ~std::uint64_t{0};
    for (int i = 0; i < 64; ++i) {
        const std::uint64_t a = tick();
        const std::uint64_t b = tick();
        if (b - a < best)
            best = b - a;
    }
    return best;
}

/**
 * Convert one node subtree into report form (no merging yet). A
 * sampled (hot) site's inclusive time is estimated from the mean of
 * its timed entries scaled to the full entry count; exactly-timed
 * sites have timed == count and the expression is exact. Each timed
 * entry's own clock-read cost is subtracted so scaling a sampled mean
 * does not multiply timer overhead into the estimate.
 */
PhaseStat
rawStat(const Profiler::Node& node, double tick_period,
        std::uint64_t tick_cost)
{
    PhaseStat s;
    s.label = node.label;
    s.count = node.count;
    const std::uint64_t timer_ticks = node.timed * tick_cost;
    const std::uint64_t ticks =
        node.ticks > timer_ticks ? node.ticks - timer_ticks : 0;
    const double est =
        node.timed > 0 ? static_cast<double>(ticks) *
                             (static_cast<double>(node.count) /
                              static_cast<double>(node.timed))
                       : 0.0;
    s.inclusiveSeconds = est * tick_period;
    for (const auto& child : node.children)
        if (child)
            s.children.push_back(rawStat(*child, tick_period, tick_cost));
    return s;
}

/** Scale a subtree's times by @p f (sampled-estimate reconciliation). */
void
scaleSubtree(PhaseStat& s, double f)
{
    s.inclusiveSeconds *= f;
    s.exclusiveSeconds *= f;
    for (auto& c : s.children)
        scaleSubtree(c, f);
}

/**
 * Merge same-label siblings (two call sites may time the same logical
 * phase — the report speaks in phases, not sites), sort children by
 * label for deterministic export, and derive exclusive times.
 */
void
normalize(PhaseStat& s)
{
    std::sort(s.children.begin(), s.children.end(),
              [](const PhaseStat& a, const PhaseStat& b) {
                  return a.label < b.label;
              });
    for (std::size_t i = 1; i < s.children.size();) {
        if (s.children[i].label != s.children[i - 1].label) {
            ++i;
            continue;
        }
        s.children[i - 1].count += s.children[i].count;
        s.children[i - 1].inclusiveSeconds +=
            s.children[i].inclusiveSeconds;
        for (auto& gc : s.children[i].children)
            s.children[i - 1].children.push_back(std::move(gc));
        s.children.erase(s.children.begin() + static_cast<long>(i));
    }
    double child_sum = 0.0;
    for (auto& c : s.children) {
        normalize(c);
        child_sum += c.inclusiveSeconds;
    }
    // Sampled estimates are unbiased but not exact: children may sum
    // to slightly more than their parent. Reconcile by scaling the
    // children down proportionally so the tree invariants (Σ children
    // ≤ parent inclusive, exclusive ≥ 0) hold by construction.
    if (child_sum > s.inclusiveSeconds && child_sum > 0.0) {
        const double f = s.inclusiveSeconds / child_sum;
        for (auto& c : s.children)
            scaleSubtree(c, f);
        child_sum = s.inclusiveSeconds;
    }
    s.exclusiveSeconds = std::max(0.0, s.inclusiveSeconds - child_sum);
}

} // namespace

SiteId
registerSite(const char* label)
{
    std::lock_guard<std::mutex> lock(siteMutex);
    siteLabels.push_back(label);
    return static_cast<SiteId>(siteLabels.size() - 1);
}

std::size_t
siteCount()
{
    std::lock_guard<std::mutex> lock(siteMutex);
    return siteLabels.size();
}

const PhaseStat*
PhaseStat::child(std::string_view name) const
{
    for (const auto& c : children)
        if (c.label == name)
            return &c;
    return nullptr;
}

void
ProfileReport::setThroughput(std::uint64_t insts, std::uint64_t accesses)
{
    instructions = insts;
    llcAccesses = accesses;
    instsPerSecond = ratePerSecond(insts, wallSeconds);
    accessesPerSecond = ratePerSecond(accesses, wallSeconds);
}

const PhaseStat*
findPhase(const PhaseStat& root, std::string_view label)
{
    if (root.label == label)
        return &root;
    for (const auto& c : root.children)
        if (const PhaseStat* hit = findPhase(c, label))
            return hit;
    return nullptr;
}

double
llcCoverage(const PhaseStat& root)
{
    // Sum over every "measure" node in the tree (preorder walk).
    double measure = 0.0;
    double covered = 0.0;
    const auto walk = [&](const PhaseStat& n, const auto& self) -> void {
        if (n.label == "measure") {
            measure += n.inclusiveSeconds;
            for (const auto& c : n.children)
                if (c.label.rfind("llc.", 0) == 0)
                    covered += c.inclusiveSeconds;
            return; // nothing below measure is a second window
        }
        for (const auto& c : n.children)
            self(c, self);
    };
    walk(root, walk);
    return measure > 0.0 ? covered / measure : 0.0;
}

Profiler::Profiler()
    : current_(&root_), startTick_(tick()),
      tickCost_(calibrateTickCost())
{
    root_.label = "run";
    threadCpu(&startUser_, &startSys_);
}

Profiler::~Profiler()
{
    panicIf(tlsProfiler == this,
            "Profiler destroyed while still attached to this thread");
}

ProfileReport
Profiler::finish()
{
    panicIf(current_ != &root_,
            "Profiler::finish() called inside an open profiling scope");
    const std::uint64_t end_tick = tick();

    ProfileReport r;
    r.wallSeconds = wall_.seconds();
    double user = 0.0, sys = 0.0;
    threadCpu(&user, &sys);
    r.userSeconds = std::max(0.0, user - startUser_);
    r.sysSeconds = std::max(0.0, sys - startSys_);
    r.maxRssKb = processMaxRssKb();

    // Calibrate the tick period over this profiler's own lifetime.
    const std::uint64_t total_ticks = end_tick - startTick_;
    const double tick_period =
        total_ticks > 0
            ? r.wallSeconds / static_cast<double>(total_ticks)
            : 0.0;
    root_.ticks = total_ticks;
    root_.count = 1;
    root_.timed = 1;
    r.root = rawStat(root_, tick_period, tickCost_);
    normalize(r.root);
    return r;
}

Attach::Attach(Profiler& p) : prev_(tlsProfiler)
{
    tlsProfiler = &p;
}

Attach::~Attach()
{
    tlsProfiler = prev_;
}

} // namespace mrp::prof
