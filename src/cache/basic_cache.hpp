/**
 * @file
 * A plain true-LRU write-back cache used for the L1D and L2 levels.
 *
 * The upper levels do not need pluggable policies (the paper's
 * techniques manage only the LLC), so this class is kept simple and
 * fast: each set's tags sit in one contiguous run, invalid ways hold a
 * tag no address produces, and recency is a 64-bit LRU stamp per way.
 */

#ifndef MRP_CACHE_BASIC_CACHE_HPP
#define MRP_CACHE_BASIC_CACHE_HPP

#include <string>
#include <vector>

#include "cache/geometry.hpp"
#include "stats/level_stats.hpp"
#include "util/types.hpp"

namespace mrp::cache {

/** Description of a block displaced by a fill. */
struct VictimBlock
{
    bool valid = false;   //!< a block was displaced
    Addr blockAddress = 0;
    bool dirty = false;
};

/** True-LRU set-associative write-back cache. */
class BasicCache
{
  public:
    BasicCache(std::string name, Addr bytes, std::uint32_t ways);

    const std::string& name() const { return name_; }
    const CacheGeometry& geometry() const { return geom_; }

    /**
     * Look up @p addr; on a hit, update recency and (for writes) the
     * dirty bit.
     * @return true on hit
     */
    bool access(Addr addr, bool is_write);

    /** Non-mutating presence check. */
    bool contains(Addr addr) const;

    /**
     * Refresh recency of a block if present (no statistics recorded);
     * used by prefetch probes.
     * @return true if the block was present
     */
    bool touch(Addr addr);

    /**
     * Install the block of @p addr, assumed absent.
     * @param dirty install in dirty state (writeback allocation)
     * @return the displaced block, if any
     */
    VictimBlock fill(Addr addr, bool dirty);

    /** Mark an (assumed present) block dirty; returns false if absent. */
    bool markDirty(Addr addr);

    /** Invalidate a block if present; returns its prior state. */
    VictimBlock invalidate(Addr addr);

    stats::LevelStats& stats() { return stats_; }
    const stats::LevelStats& stats() const { return stats_; }

  private:
    /** Tag of an invalid way; block tags are below 2^58. */
    static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

    /** Flat index of the way holding @p addr, or -1. */
    std::ptrdiff_t find(Addr addr) const;

    std::string name_;
    CacheGeometry geom_;
    // Per way, sets * ways each, set-major.
    std::vector<std::uint64_t> tags_;
    /** Last-use stamp; 0 exactly when the way is invalid. */
    std::vector<std::uint64_t> lastUse_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t useClock_ = 0;
    stats::LevelStats stats_;
};

} // namespace mrp::cache

#endif // MRP_CACHE_BASIC_CACHE_HPP
