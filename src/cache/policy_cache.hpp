/**
 * @file
 * The shared last-level cache with a pluggable management policy.
 */

#ifndef MRP_CACHE_POLICY_CACHE_HPP
#define MRP_CACHE_POLICY_CACHE_HPP

#include <memory>
#include <string>
#include <vector>

#include "cache/basic_cache.hpp"
#include "cache/llc_policy.hpp"
#include "stats/level_stats.hpp"
#include "telemetry/metrics.hpp"

namespace mrp::cache {

/** Outcome of one LLC access. */
struct LlcResult
{
    bool hit = false;
    bool bypassed = false;
    VictimBlock victim; //!< LLC block displaced by the fill, if any
};

/**
 * Set-associative LLC whose victim selection, bypass, and promotion
 * behaviour are delegated to an LlcPolicy. All access types flow
 * through access(); writeback fills install dirty.
 */
class PolicyCache
{
  public:
    PolicyCache(Addr bytes, std::uint32_t ways,
                std::unique_ptr<LlcPolicy> policy, unsigned cores);

    const CacheGeometry& geometry() const { return geom_; }
    LlcPolicy& policy() { return *policy_; }

    /** Attach a passive observer (may be null to detach). */
    void setObserver(LlcObserver* obs) { observer_ = obs; }

    /**
     * Register "llc.*" event counters with @p registry and forward to
     * the policy's attachTelemetry. Until this is called the hot path
     * pays a single null check.
     */
    void attachTelemetry(telemetry::MetricsRegistry& registry);

    /**
     * Perform one access: lookup, policy notification, and — on a
     * miss — the fill with policy-controlled bypass and victim choice.
     */
    LlcResult access(const AccessInfo& info);

    /** Non-mutating presence check. */
    bool contains(Addr addr) const;

    stats::LevelStats& stats() { return stats_; }
    const stats::LevelStats& stats() const { return stats_; }

    /** LLC demand misses attributed to a core. */
    std::uint64_t demandMissesOf(CoreId core) const;

    /** Valid blocks currently owned by tenant @p owner (O(cache)). */
    std::uint64_t ownerBlockCount(std::uint32_t owner) const;

    /** Zero all statistics (end of warmup). */
    void resetStats();

  private:
    /** Tag of an invalid way; block tags are below 2^58. */
    static constexpr std::uint64_t kInvalid = ~std::uint64_t{0};

    /** A way's state besides its tag. */
    struct WayState
    {
        std::uint32_t owner = 0; //!< tenant id; 0 when unpartitioned
        bool dirty = false;
    };

    /** Counters mirrored into the metrics registry when attached. */
    struct Telemetry
    {
        telemetry::Counter* demandAccesses = nullptr;
        telemetry::Counter* demandHits = nullptr;
        telemetry::Counter* demandMisses = nullptr;
        telemetry::Counter* prefetchAccesses = nullptr;
        telemetry::Counter* writebackAccesses = nullptr;
        telemetry::Counter* bypasses = nullptr;
        telemetry::Counter* fills = nullptr;
        telemetry::Counter* evictions = nullptr;
        telemetry::Counter* dirtyEvictions = nullptr;
    };

    std::size_t slot(std::uint32_t set, std::uint32_t way) const
    {
        return static_cast<std::size_t>(set) * geom_.ways() + way;
    }
    int findWay(std::uint32_t set, std::uint64_t tag,
                std::uint32_t owner) const;

    CacheGeometry geom_;
    std::unique_ptr<LlcPolicy> policy_;
    LlcObserver* observer_ = nullptr;
    // Per way, sets * ways each, set-major. The tags stand alone so a
    // set's lookup scans one contiguous run.
    std::vector<std::uint64_t> tags_;
    std::vector<WayState> state_;
    stats::LevelStats stats_;
    std::vector<std::uint64_t> demandMissesPerCore_;
    std::unique_ptr<Telemetry> tel_; //!< null until attachTelemetry
};

} // namespace mrp::cache

#endif // MRP_CACHE_POLICY_CACHE_HPP
