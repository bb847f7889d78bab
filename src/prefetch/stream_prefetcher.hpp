/**
 * @file
 * Stream prefetcher modeled on the paper's description (§4.1): a
 * stream begins on an L1 miss, waits for at most two misses to decide
 * its direction, then generates prefetch requests; 16 streams are
 * tracked with LRU replacement.
 */

#ifndef MRP_PREFETCH_STREAM_PREFETCHER_HPP
#define MRP_PREFETCH_STREAM_PREFETCHER_HPP

#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace mrp::prefetch {

/** Tuning knobs of the stream prefetcher. */
struct StreamPrefetcherConfig
{
    unsigned streams = 16;  //!< concurrently tracked streams
    unsigned degree = 2;    //!< prefetches issued per triggering miss
    unsigned distance = 4;  //!< how far ahead of the miss to run
    unsigned window = 16;   //!< miss-to-stream matching window (blocks)
};

/** One-core stream prefetcher. */
class StreamPrefetcher
{
  public:
    explicit StreamPrefetcher(
        const StreamPrefetcherConfig& cfg = StreamPrefetcherConfig{});

    /**
     * Observe a demand L1 miss to @p addr and append the block-aligned
     * byte addresses to prefetch to @p out.
     */
    void onL1Miss(Addr addr, std::vector<Addr>& out);

    /** Total prefetch addresses generated. */
    std::uint64_t issued() const { return issued_; }

    /** Drop all stream state (e.g.\ between runs). */
    void reset();

    /**
     * Start accuracy/coverage tracking (telemetry). Recently issued
     * prefetches are remembered in a small direct-mapped filter; a
     * demand hit on a filtered block counts as useful, a demand miss
     * on one as late. Tracking counters cover only the period after
     * this call, so attach it at the start of the measurement window.
     */
    void enableTracking();

    bool trackingEnabled() const { return tracking_; }

    /** Demand L1 *hit* on @p addr (only called while tracking). */
    void observeDemandHit(Addr addr);

    /** Prefetches issued since tracking was enabled. */
    std::uint64_t trackedIssued() const
    {
        return issued_ - issuedAtEnable_;
    }
    /** Tracked prefetches later hit by demand. */
    std::uint64_t useful() const { return useful_; }
    /** Tracked prefetches demand-missed before (or despite) arrival. */
    std::uint64_t late() const { return late_; }
    /** Demand L1 misses observed while tracking. */
    std::uint64_t demandMisses() const { return demandMisses_; }

    /** useful / issued over the tracked period (0 when nothing issued). */
    double accuracy() const;
    /** useful / (useful + demand misses): fraction of would-be misses
     * the prefetcher hid. */
    double coverage() const;

  private:
    /** Direction and prefetch head of one stream. */
    struct Stream
    {
        Addr head = 0;     //!< next block to prefetch
        int direction = 0; //!< 0 until confirmed, else +1/-1
    };

    /** Direct-mapped recently-prefetched filter (block addresses). */
    static constexpr std::size_t kFilterSlots = 4096;
    static constexpr Addr kNoBlock = ~Addr{0};

    StreamPrefetcherConfig cfg_;
    // Per stream, cfg_.streams each. An invalid stream's lastBlock is
    // kNoBlock — farther than any window from every block address —
    // and its lastUse is 0, below every valid stream's.
    std::vector<Addr> lastBlock_; //!< most recent miss matched to it
    std::vector<std::uint64_t> lastUse_;
    std::vector<Stream> streams_;
    std::uint64_t useClock_ = 0;
    std::uint64_t issued_ = 0;
    bool tracking_ = false;
    std::vector<Addr> filter_; //!< empty until enableTracking
    std::uint64_t issuedAtEnable_ = 0;
    std::uint64_t useful_ = 0;
    std::uint64_t late_ = 0;
    std::uint64_t demandMisses_ = 0;
};

} // namespace mrp::prefetch

#endif // MRP_PREFETCH_STREAM_PREFETCHER_HPP
