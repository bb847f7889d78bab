#include "cache/policy_cache.hpp"

#include "prof/profiler.hpp"
#include "util/logging.hpp"

namespace mrp::cache {

PolicyCache::PolicyCache(Addr bytes, std::uint32_t ways,
                         std::unique_ptr<LlcPolicy> policy, unsigned cores)
    : geom_(bytes, ways), policy_(std::move(policy)),
      tags_(static_cast<std::size_t>(geom_.sets()) * geom_.ways(),
            kInvalid),
      state_(tags_.size()), demandMissesPerCore_(cores, 0)
{
    fatalIf(!policy_, "PolicyCache requires a policy");
    fatalIf(cores == 0, "PolicyCache requires at least one core");
}

int
PolicyCache::findWay(std::uint32_t set, std::uint64_t tag,
                     std::uint32_t owner) const
{
    const std::size_t base = slot(set, 0);
    const std::uint64_t* tags = &tags_[base];
    for (std::uint32_t w = 0; w < geom_.ways(); ++w)
        if (tags[w] == tag && state_[base + w].owner == owner)
            return static_cast<int>(w);
    return -1;
}

void
PolicyCache::attachTelemetry(telemetry::MetricsRegistry& registry)
{
    tel_ = std::make_unique<Telemetry>();
    tel_->demandAccesses = &registry.counter("llc.demand_accesses");
    tel_->demandHits = &registry.counter("llc.demand_hits");
    tel_->demandMisses = &registry.counter("llc.demand_misses");
    tel_->prefetchAccesses = &registry.counter("llc.prefetch_accesses");
    tel_->writebackAccesses =
        &registry.counter("llc.writeback_accesses");
    tel_->bypasses = &registry.counter("llc.bypasses");
    tel_->fills = &registry.counter("llc.fills");
    tel_->evictions = &registry.counter("llc.evictions");
    tel_->dirtyEvictions = &registry.counter("llc.dirty_evictions");
    policy_->attachTelemetry(registry);
}

LlcResult
PolicyCache::access(const AccessInfo& info)
{
    MRP_PROF_SCOPE_HOT("llc.access");
    const std::uint32_t set = geom_.setIndex(info.addr);
    const std::uint64_t tag = geom_.tag(info.addr);
    const std::uint32_t owner = policy_->tenantOf(info);

    switch (info.type) {
      case AccessType::Load:
      case AccessType::Store:
        ++stats_.demandAccesses;
        break;
      case AccessType::Prefetch:
        ++stats_.prefetchAccesses;
        break;
      case AccessType::Writeback:
        ++stats_.writebackAccesses;
        break;
    }
    if (tel_) {
        switch (info.type) {
          case AccessType::Load:
          case AccessType::Store:
            tel_->demandAccesses->add();
            break;
          case AccessType::Prefetch:
            tel_->prefetchAccesses->add();
            break;
          case AccessType::Writeback:
            tel_->writebackAccesses->add();
            break;
        }
    }

    LlcResult result;
    const int hit_way = findWay(set, tag, owner);
    if (hit_way >= 0) {
        result.hit = true;
        if (info.type == AccessType::Writeback)
            state_[slot(set, static_cast<std::uint32_t>(hit_way))]
                .dirty = true;
        switch (info.type) {
          case AccessType::Load:
          case AccessType::Store:
            ++stats_.demandHits;
            break;
          case AccessType::Prefetch:
            ++stats_.prefetchHits;
            break;
          case AccessType::Writeback:
            ++stats_.writebackHits;
            break;
        }
        if (tel_ && (info.type == AccessType::Load ||
                     info.type == AccessType::Store))
            tel_->demandHits->add();
        policy_->onHit(info, set, static_cast<std::uint32_t>(hit_way));
        if (observer_)
            observer_->onAccess(info, true, set, hit_way);
        return result;
    }

    // Miss path.
    switch (info.type) {
      case AccessType::Load:
      case AccessType::Store:
        ++stats_.demandMisses;
        if (info.core < demandMissesPerCore_.size())
            ++demandMissesPerCore_[info.core];
        break;
      case AccessType::Prefetch:
        ++stats_.prefetchMisses;
        break;
      case AccessType::Writeback:
        ++stats_.writebackMisses;
        break;
    }
    if (tel_ && (info.type == AccessType::Load ||
                 info.type == AccessType::Store))
        tel_->demandMisses->add();
    policy_->onMiss(info, set);
    if (observer_)
        observer_->onAccess(info, false, set, -1);

    // The fill may be confined to a partition; zero means the whole
    // set is available.
    const WayMask fill_mask = policy_->fillWays(info, set);
    const WayMask allowed =
        fill_mask != 0 ? fill_mask : fullWayMask(geom_.ways());

    // Find an invalid allowed way first: bypassing when a way is free
    // would waste capacity, so the policy is only consulted for full
    // (within the partition) sets.
    const std::uint64_t* tags = &tags_[slot(set, 0)];
    std::uint32_t fill_way = geom_.ways();
    for (std::uint32_t w = 0; w < geom_.ways(); ++w) {
        if ((allowed >> w & 1) != 0 && tags[w] == kInvalid) {
            fill_way = w;
            break;
        }
    }
    if (fill_way == geom_.ways()) {
        if (policy_->shouldBypass(info, set)) {
            ++stats_.bypasses;
            if (tel_)
                tel_->bypasses->add();
            result.bypassed = true;
            if (observer_)
                observer_->onBypass(info, set);
            return result;
        }
        fill_way = fill_mask != 0
                       ? policy_->victimWayIn(info, set, fill_mask)
                       : policy_->victimWay(info, set);
        // Not panicIf: it would build the message on every eviction.
        if (fill_way >= geom_.ways() || (allowed >> fill_way & 1) == 0)
            panic("policy returned a victim way outside the fill mask");
        const std::size_t victim = slot(set, fill_way);
        result.victim.valid = true;
        result.victim.blockAddress = geom_.blockAddrOf(set, tags_[victim]);
        result.victim.dirty = state_[victim].dirty;
        ++stats_.evictions;
        if (result.victim.dirty)
            ++stats_.dirtyEvictions;
        if (tel_) {
            tel_->evictions->add();
            if (result.victim.dirty)
                tel_->dirtyEvictions->add();
        }
        policy_->onEvict(set, fill_way);
        if (observer_)
            observer_->onEvict(set, fill_way, result.victim.blockAddress);
    }

    const std::size_t fill = slot(set, fill_way);
    tags_[fill] = tag;
    state_[fill] = {owner, info.type == AccessType::Writeback};
    if (tel_)
        tel_->fills->add();
    policy_->onFill(info, set, fill_way);
    if (observer_)
        observer_->onFill(info, set, fill_way);
    return result;
}

bool
PolicyCache::contains(Addr addr) const
{
    // Presence check is owner-agnostic: any tenant's copy counts.
    const std::uint64_t tag = geom_.tag(addr);
    const std::uint64_t* tags = &tags_[slot(geom_.setIndex(addr), 0)];
    for (std::uint32_t w = 0; w < geom_.ways(); ++w)
        if (tags[w] == tag)
            return true;
    return false;
}

std::uint64_t
PolicyCache::ownerBlockCount(std::uint32_t owner) const
{
    std::uint64_t n = 0;
    for (std::size_t i = 0; i < tags_.size(); ++i)
        if (tags_[i] != kInvalid && state_[i].owner == owner)
            ++n;
    return n;
}

std::uint64_t
PolicyCache::demandMissesOf(CoreId core) const
{
    fatalIf(core >= demandMissesPerCore_.size(),
            "core id out of range in demandMissesOf");
    return demandMissesPerCore_[core];
}

void
PolicyCache::resetStats()
{
    stats_.reset();
    for (auto& c : demandMissesPerCore_)
        c = 0;
}

} // namespace mrp::cache
