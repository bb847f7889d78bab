#include "mrc/partition_advisor.hpp"

#include <algorithm>

#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::mrc {

namespace {

/** Knee of one curve: the smallest profiled capacity whose miss-ratio
 * reduction (from the smallest capacity) reaches @p fraction of the
 * total reduction the curve achieves. Flat curves (streaming tenants)
 * knee at the smallest capacity — they cannot convert ways to hits. */
TenantAdvice
kneeOf(const MrcProfile& p, const double fraction)
{
    fatalIf(p.points.empty(), ErrorCode::Config,
            "profile '" + p.benchmark + "' has no points");
    TenantAdvice a;
    a.benchmark = p.benchmark;
    const double base = p.points.front().missRatio;
    const double best = p.points.back().missRatio;
    const double achievable = base - best;
    a.kneeBytes = p.points.front().bytes;
    a.kneeMissRatio = base;
    if (achievable <= 0.0)
        return a;
    for (const auto& pt : p.points) {
        if (base - pt.missRatio >= fraction * achievable) {
            a.kneeBytes = pt.bytes;
            a.kneeMissRatio = pt.missRatio;
            return a;
        }
    }
    a.kneeBytes = p.points.back().bytes;
    a.kneeMissRatio = best;
    return a;
}

} // namespace

std::string
PartitionAdvice::partitionFlag() const
{
    std::string out;
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        if (t)
            out += ",";
        out += std::to_string(tenants[t].ways);
    }
    return out;
}

std::string
PartitionAdvice::toJson(const PartitionAdvisorConfig& cfg) const
{
    std::string out = "{";
    out += json::key("llcBytes") + std::to_string(cfg.llcBytes) + ", ";
    out += json::key("llcWays") + std::to_string(cfg.llcWays) + ", ";
    out += json::key("kneeFraction") +
           json::formatDouble(cfg.kneeFraction) + ", ";
    out += json::key("partition") + json::str(partitionFlag()) + ", ";
    out += json::key("tenants") + "[";
    for (std::size_t t = 0; t < tenants.size(); ++t) {
        const auto& a = tenants[t];
        if (t)
            out += ", ";
        out += json::firstKey("benchmark") + json::str(a.benchmark);
        out += ", " + json::key("kneeBytes") +
               std::to_string(a.kneeBytes);
        out += ", " + json::key("kneeMissRatio") +
               json::formatDouble(a.kneeMissRatio);
        out += ", " + json::key("ways") + std::to_string(a.ways) + "}";
    }
    out += "]}\n";
    return out;
}

PartitionAdvice
suggestPartition(const std::vector<MrcProfile>& profiles,
                 const PartitionAdvisorConfig& cfg)
{
    fatalIf(profiles.empty(), ErrorCode::Config,
            "partition advisor needs at least one profile");
    const unsigned n = static_cast<unsigned>(profiles.size());
    fatalIf(cfg.llcWays == 0, ErrorCode::Config,
            "partition advisor needs --llc-ways > 0");
    fatalIf(cfg.minWays == 0, ErrorCode::Config,
            "minWays must be >= 1");
    fatalIf(n * cfg.minWays > cfg.llcWays, ErrorCode::Config,
            std::to_string(n) + " tenants at minWays " +
                std::to_string(cfg.minWays) + " exceed " +
                std::to_string(cfg.llcWays) + " LLC ways");

    PartitionAdvice advice;
    for (const auto& p : profiles)
        advice.tenants.push_back(kneeOf(p, cfg.kneeFraction));

    // Largest-remainder apportionment of the ways left after the
    // per-tenant floor, in proportion to knee capacity. Ties break to
    // the lowest tenant index, so the suggestion is deterministic.
    double total_knee = 0.0;
    for (const auto& a : advice.tenants)
        total_knee += static_cast<double>(a.kneeBytes);
    const unsigned spare = cfg.llcWays - n * cfg.minWays;
    std::vector<double> remainder(n, 0.0);
    unsigned assigned = 0;
    for (unsigned t = 0; t < n; ++t) {
        const double share =
            total_knee > 0.0
                ? static_cast<double>(advice.tenants[t].kneeBytes) /
                      total_knee
                : 1.0 / static_cast<double>(n);
        const double quota = share * static_cast<double>(spare);
        const unsigned whole = static_cast<unsigned>(quota);
        advice.tenants[t].ways = cfg.minWays + whole;
        remainder[t] = quota - static_cast<double>(whole);
        assigned += whole;
    }
    std::vector<unsigned> order(n);
    for (unsigned t = 0; t < n; ++t)
        order[t] = t;
    std::stable_sort(order.begin(), order.end(),
                     [&remainder](unsigned a, unsigned b) {
                         return remainder[a] > remainder[b];
                     });
    for (unsigned i = 0; assigned < spare; ++i, ++assigned)
        ++advice.tenants[order[i % n]].ways;
    return advice;
}

} // namespace mrp::mrc
