#include "tenant/tenant_policy.hpp"

#include "util/logging.hpp"

namespace mrp::tenant {

namespace {

std::vector<std::uint32_t>
sizesOf(const TenancyConfig& cfg)
{
    std::vector<std::uint32_t> sizes;
    sizes.reserve(cfg.tenants.size());
    for (const TenantConfig& t : cfg.tenants)
        sizes.push_back(t.ways);
    return sizes;
}

} // namespace

TenantPartitionPolicy::TenantPartitionPolicy(
    const cache::CacheGeometry& geom, unsigned cores,
    const TenancyConfig& cfg, const InnerPolicyFactory& inner)
    : partition_(sizesOf(cfg), geom.ways())
{
    const std::string why = describeInvalid(cfg, geom.ways(), cores);
    fatalIf(!why.empty(), ErrorCode::Config, "invalid tenancy: " + why);
    fatalIf(!inner, ErrorCode::Config,
            "tenancy needs an inner policy factory");
    inners_.reserve(cfg.tenants.size());
    // Each inner policy sees the full geometry (its victim choices are
    // confined by the mask at selection time) and the full core count,
    // but only ever receives its own tenant's events.
    for (std::size_t t = 0; t < cfg.tenants.size(); ++t)
        inners_.push_back(inner(geom, cores));
}

std::string
TenantPartitionPolicy::name() const
{
    return "Tenant(" + inners_[0]->name() + ")";
}

void
TenantPartitionPolicy::onHit(const cache::AccessInfo& info,
                             std::uint32_t set, std::uint32_t way)
{
    innerOf(info).onHit(info, set, way);
}

void
TenantPartitionPolicy::onMiss(const cache::AccessInfo& info,
                              std::uint32_t set)
{
    innerOf(info).onMiss(info, set);
}

bool
TenantPartitionPolicy::shouldBypass(const cache::AccessInfo& info,
                                    std::uint32_t set)
{
    return innerOf(info).shouldBypass(info, set);
}

std::uint32_t
TenantPartitionPolicy::victimWay(const cache::AccessInfo&, std::uint32_t)
{
    panic("TenantPartitionPolicy victims are always mask-confined");
}

std::uint32_t
TenantPartitionPolicy::victimWayIn(const cache::AccessInfo& info,
                                   std::uint32_t set, cache::WayMask mask)
{
    const std::uint32_t way =
        innerOf(info).victimWayIn(info, set, mask);
    panicIf((mask >> way & 1) == 0,
            "inner policy chose a victim outside the partition");
    return way;
}

void
TenantPartitionPolicy::onFill(const cache::AccessInfo& info,
                              std::uint32_t set, std::uint32_t way)
{
    innerOf(info).onFill(info, set, way);
}

void
TenantPartitionPolicy::onEvict(std::uint32_t set, std::uint32_t way)
{
    // Evictions carry no access info; route by the way's current
    // owner. Right after a QoS resize the receiving tenant may evict a
    // stale block the donor left behind — its inner policy trains on
    // that eviction, which is the deterministic choice documented in
    // DESIGN.md.
    inners_[partition_.tenantOfWay(way)]->onEvict(set, way);
}

cache::WayMask
TenantPartitionPolicy::fillWays(const cache::AccessInfo& info,
                                std::uint32_t)
{
    return partition_.maskOf(info.core);
}

std::uint32_t
TenantPartitionPolicy::tenantOf(const cache::AccessInfo& info) const
{
    return info.core;
}

void
TenantPartitionPolicy::attachTelemetry(
    telemetry::MetricsRegistry& registry)
{
    // Policy-internal probes (predictor weights, sampler state) use
    // fixed metric names, so only one inner may register them; tenant 0
    // is the documented owner. Partition-level tenant.* metrics are
    // registered by the simulation driver, which can also see
    // occupancy and misses.
    inners_[0]->attachTelemetry(registry);
}

} // namespace mrp::tenant
