#include "cache/basic_cache.hpp"

namespace mrp::cache {

BasicCache::BasicCache(std::string name, Addr bytes, std::uint32_t ways)
    : name_(std::move(name)), geom_(bytes, ways),
      tags_(static_cast<std::size_t>(geom_.sets()) * geom_.ways(),
            kInvalid),
      lastUse_(tags_.size(), 0), dirty_(tags_.size(), 0)
{
}

std::ptrdiff_t
BasicCache::find(Addr addr) const
{
    const std::size_t base =
        static_cast<std::size_t>(geom_.setIndex(addr)) * geom_.ways();
    const std::uint64_t tag = geom_.tag(addr);
    const std::uint64_t* tags = &tags_[base];
    for (std::uint32_t w = 0; w < geom_.ways(); ++w)
        if (tags[w] == tag)
            return static_cast<std::ptrdiff_t>(base + w);
    return -1;
}

bool
BasicCache::access(Addr addr, bool is_write)
{
    ++stats_.demandAccesses;
    const std::ptrdiff_t i = find(addr);
    if (i >= 0) {
        lastUse_[i] = ++useClock_;
        dirty_[i] |= is_write ? 1 : 0;
        ++stats_.demandHits;
        return true;
    }
    ++stats_.demandMisses;
    return false;
}

bool
BasicCache::contains(Addr addr) const
{
    return find(addr) >= 0;
}

bool
BasicCache::touch(Addr addr)
{
    const std::ptrdiff_t i = find(addr);
    if (i < 0)
        return false;
    lastUse_[i] = ++useClock_;
    return true;
}

VictimBlock
BasicCache::fill(Addr addr, bool dirty)
{
    const std::uint32_t set = geom_.setIndex(addr);
    const std::size_t base = static_cast<std::size_t>(set) * geom_.ways();

    // Invalid ways carry stamp 0 and valid ones a positive stamp, so
    // the first minimum is the first invalid way if there is one, and
    // the least recently used way otherwise.
    const std::uint64_t* stamps = &lastUse_[base];
    std::uint32_t way = 0;
    for (std::uint32_t w = 1; w < geom_.ways(); ++w)
        if (stamps[w] < stamps[way])
            way = w;
    const std::size_t slot = base + way;

    VictimBlock victim;
    if (tags_[slot] != kInvalid) {
        victim.valid = true;
        victim.blockAddress = geom_.blockAddrOf(set, tags_[slot]);
        victim.dirty = dirty_[slot] != 0;
        ++stats_.evictions;
        if (victim.dirty)
            ++stats_.dirtyEvictions;
    }

    ++stats_.fills;
    tags_[slot] = geom_.tag(addr);
    dirty_[slot] = dirty ? 1 : 0;
    lastUse_[slot] = ++useClock_;
    return victim;
}

bool
BasicCache::markDirty(Addr addr)
{
    const std::ptrdiff_t i = find(addr);
    if (i < 0)
        return false;
    dirty_[i] = 1;
    return true;
}

VictimBlock
BasicCache::invalidate(Addr addr)
{
    VictimBlock out;
    const std::ptrdiff_t i = find(addr);
    if (i >= 0) {
        out.valid = true;
        out.blockAddress = blockAddr(addr) << kBlockShift;
        out.dirty = dirty_[i] != 0;
        tags_[i] = kInvalid;
        lastUse_[i] = 0;
        dirty_[i] = 0;
    }
    return out;
}

} // namespace mrp::cache
