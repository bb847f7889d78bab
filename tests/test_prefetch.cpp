/**
 * @file
 * Tests for the stream prefetcher: direction learning after at most
 * two misses, degree/distance behaviour, stream capacity with LRU
 * replacement.
 */

#include <gtest/gtest.h>

#include <vector>

#include "prefetch/stream_prefetcher.hpp"
#include "util/rng.hpp"

namespace mrp::prefetch {
namespace {

std::vector<Addr>
missSeq(StreamPrefetcher& pf, const std::vector<Addr>& blocks)
{
    std::vector<Addr> out;
    for (const Addr b : blocks)
        pf.onL1Miss(b << kBlockShift, out);
    return out;
}

TEST(StreamPrefetcherTest, NoPrefetchOnFirstTwoMisses)
{
    StreamPrefetcher pf;
    std::vector<Addr> out;
    pf.onL1Miss(100 << kBlockShift, out);
    EXPECT_TRUE(out.empty()); // stream allocated, no direction yet
}

TEST(StreamPrefetcherTest, AscendingStreamPrefetchesAhead)
{
    StreamPrefetcher pf;
    const auto out = missSeq(pf, {100, 101, 102, 103});
    ASSERT_FALSE(out.empty());
    // All prefetched addresses run ahead of the last miss direction.
    for (const Addr a : out)
        EXPECT_GT(blockAddr(a), 101u);
    EXPECT_GT(pf.issued(), 0u);
}

TEST(StreamPrefetcherTest, DescendingStreamDetected)
{
    StreamPrefetcher pf;
    const auto out = missSeq(pf, {200, 199, 198});
    ASSERT_FALSE(out.empty());
    for (const Addr a : out)
        EXPECT_LT(blockAddr(a), 199u);
}

TEST(StreamPrefetcherTest, DegreeLimitsPerTriggerIssue)
{
    StreamPrefetcherConfig cfg;
    cfg.degree = 2;
    cfg.distance = 16;
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    pf.onL1Miss(10 << kBlockShift, out);
    pf.onL1Miss(11 << kBlockShift, out);
    const std::size_t first_burst = out.size();
    EXPECT_LE(first_burst, 2u);
}

TEST(StreamPrefetcherTest, DistanceBoundsRunahead)
{
    StreamPrefetcherConfig cfg;
    cfg.degree = 8;
    cfg.distance = 4;
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    for (Addr b = 50; b < 60; ++b)
        pf.onL1Miss(b << kBlockShift, out);
    for (const Addr a : out)
        EXPECT_LE(blockAddr(a), 59u + 4u);
}

TEST(StreamPrefetcherTest, RandomMissesProduceNoStreams)
{
    StreamPrefetcher pf;
    std::vector<Addr> out;
    // Far-apart blocks never match a stream window.
    for (Addr b = 0; b < 64; ++b)
        pf.onL1Miss((b * 1000) << kBlockShift, out);
    EXPECT_TRUE(out.empty());
}

TEST(StreamPrefetcherTest, TracksSixteenConcurrentStreams)
{
    StreamPrefetcherConfig cfg;
    StreamPrefetcher pf(cfg);
    std::vector<Addr> out;
    // Interleave 16 streams; all should be confirmed and prefetching.
    for (int round = 0; round < 4; ++round)
        for (Addr s = 0; s < 16; ++s)
            pf.onL1Miss((s * 100000 + 7 + round) << kBlockShift, out);
    EXPECT_GT(out.size(), 16u);
}

TEST(StreamPrefetcherTest, LruReplacesColdStreams)
{
    StreamPrefetcher pf;
    std::vector<Addr> out;
    // Allocate 16 streams, then a 17th: the first stream must be the
    // one replaced, so re-missing near stream 0's region allocates
    // fresh (no immediate prefetch).
    for (Addr s = 0; s < 17; ++s)
        pf.onL1Miss((s * 100000) << kBlockShift, out);
    out.clear();
    pf.onL1Miss((0 * 100000 + 1) << kBlockShift, out);
    EXPECT_TRUE(out.empty()); // had to re-learn stream 0
}

TEST(StreamPrefetcherTest, ResetDropsState)
{
    StreamPrefetcher pf;
    std::vector<Addr> out;
    pf.onL1Miss(100 << kBlockShift, out);
    pf.onL1Miss(101 << kBlockShift, out);
    pf.reset();
    out.clear();
    pf.onL1Miss(102 << kBlockShift, out);
    EXPECT_TRUE(out.empty()); // stream was forgotten
}

// ---------------------------------------------------------------- //
// Accuracy/coverage tracking (telemetry)

TEST(StreamTrackingTest, DisabledByDefaultAndCountsFromEnable)
{
    StreamPrefetcher pf;
    EXPECT_FALSE(pf.trackingEnabled());
    missSeq(pf, {100, 101, 102, 103}); // issues before tracking
    const std::uint64_t pre = pf.issued();
    ASSERT_GT(pre, 0u);
    pf.enableTracking();
    EXPECT_TRUE(pf.trackingEnabled());
    EXPECT_EQ(pf.trackedIssued(), 0u); // pre-enable issues excluded
    EXPECT_EQ(pf.accuracy(), 0.0);     // no tracked issues yet
    EXPECT_EQ(pf.coverage(), 0.0);     // no hits or misses yet
}

TEST(StreamTrackingTest, DemandHitOnPrefetchedBlockIsUseful)
{
    StreamPrefetcher pf;
    pf.enableTracking();
    // Two learning misses confirm the stream and issue the runahead.
    const auto out = missSeq(pf, {100, 101});
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(pf.trackedIssued(), out.size());
    EXPECT_EQ(pf.demandMisses(), 2u);

    pf.observeDemandHit(out.front());
    EXPECT_EQ(pf.useful(), 1u);
    // A hit consumes the filter entry: the same block is not counted
    // as useful twice.
    pf.observeDemandHit(out.front());
    EXPECT_EQ(pf.useful(), 1u);
    // Hits on never-prefetched blocks are ignored.
    pf.observeDemandHit(999999 << kBlockShift);
    EXPECT_EQ(pf.useful(), 1u);

    EXPECT_EQ(pf.accuracy(),
              1.0 / static_cast<double>(out.size()));
    EXPECT_EQ(pf.coverage(), 1.0 / (1.0 + 2.0));
}

TEST(StreamTrackingTest, DemandMissOnPrefetchedBlockIsLate)
{
    StreamPrefetcher pf;
    pf.enableTracking();
    const auto out = missSeq(pf, {100, 101});
    ASSERT_FALSE(out.empty());
    // Demand-missing a prefetched block means the prefetch was late;
    // the slot is consumed, so it cannot later count as useful too.
    missSeq(pf, {blockAddr(out.front())});
    EXPECT_EQ(pf.late(), 1u);
    pf.observeDemandHit(out.front());
    EXPECT_EQ(pf.useful(), 0u);
}

TEST(StreamTrackingTest, PerfectStreamReachesFullAccuracy)
{
    // In the hierarchy, prefetched blocks become L1 *hits*, so the
    // prefetcher sees onL1Miss only for uncovered blocks. Model that:
    // two learning misses, then every issued prefetch is demand-hit.
    StreamPrefetcher pf;
    pf.enableTracking();
    const auto out = missSeq(pf, {100, 101});
    ASSERT_FALSE(out.empty());
    for (const Addr a : out)
        pf.observeDemandHit(a);
    EXPECT_EQ(pf.useful(), out.size());
    EXPECT_EQ(pf.accuracy(), 1.0);
    // Coverage counts the two learning misses against the hits.
    const double u = static_cast<double>(out.size());
    EXPECT_EQ(pf.coverage(), u / (u + 2.0));
}

TEST(StreamTrackingTest, ResetRestartsTheTrackedPeriod)
{
    StreamPrefetcher pf;
    pf.enableTracking();
    const auto out = missSeq(pf, {100, 101});
    ASSERT_FALSE(out.empty());
    pf.observeDemandHit(out.front());
    EXPECT_EQ(pf.useful(), 1u);
    pf.reset();
    EXPECT_TRUE(pf.trackingEnabled()); // tracking survives a reset...
    EXPECT_EQ(pf.trackedIssued(), 0u); // ...but the period restarts
    EXPECT_EQ(pf.useful(), 0u);
    EXPECT_EQ(pf.demandMisses(), 0u);
    pf.observeDemandHit(out.front()); // filter was cleared
    EXPECT_EQ(pf.useful(), 0u);
}

// ---------------------------------------------------------------- //
// The optimized matcher against the original AoS scan

/**
 * The prefetcher as first written, kept as an oracle: an array of
 * stream structs with valid flags, a first-match scan with explicit
 * zero-distance and window checks, and allocation into the first
 * invalid stream or else the least recently used one.
 */
class ReferencePrefetcher
{
  public:
    explicit ReferencePrefetcher(const StreamPrefetcherConfig& cfg)
        : cfg_(cfg), streams_(cfg.streams)
    {
    }

    void
    reset()
    {
        for (auto& s : streams_)
            s = Stream{};
        clock_ = 0;
        if (tracking_)
            enableTracking();
    }

    void
    enableTracking()
    {
        tracking_ = true;
        filter_.assign(4096, ~Addr{0});
        issuedAtEnable_ = issued_;
        useful_ = late_ = misses_ = 0;
    }

    void
    observeDemandHit(Addr addr)
    {
        if (!tracking_)
            return;
        Addr& slot = filter_[blockAddr(addr) & 4095];
        if (slot == blockAddr(addr)) {
            ++useful_;
            slot = ~Addr{0};
        }
    }

    void
    onL1Miss(Addr addr, std::vector<Addr>& out)
    {
        const Addr blk = blockAddr(addr);
        ++clock_;
        if (tracking_) {
            ++misses_;
            Addr& slot = filter_[blk & 4095];
            if (slot == blk) {
                ++late_;
                slot = ~Addr{0};
            }
        }
        Stream* m = nullptr;
        for (auto& s : streams_) {
            const Addr delta =
                blk > s.last ? blk - s.last : s.last - blk;
            if (s.valid && delta != 0 && delta <= cfg_.window) {
                m = &s;
                break;
            }
        }
        if (!m) {
            Stream* lru = &streams_[0];
            for (auto& s : streams_) {
                if (!s.valid) {
                    lru = &s;
                    break;
                }
                if (s.lastUse < lru->lastUse)
                    lru = &s;
            }
            *lru = Stream{true, blk, blk, 0, clock_};
            return;
        }
        m->lastUse = clock_;
        if (m->dir == 0) {
            m->dir = blk > m->last ? 1 : -1;
            m->head = blk;
        }
        m->last = blk;
        const auto ahead = [d = m->dir](Addr a, Addr b) {
            return d > 0 ? a > b : a < b;
        };
        if (!ahead(m->head, blk))
            m->head = blk;
        const Addr limit =
            m->dir > 0 ? blk + cfg_.distance : blk - cfg_.distance;
        for (unsigned n = 0; n < cfg_.degree && ahead(limit, m->head);
             ++n) {
            m->head = m->dir > 0 ? m->head + 1 : m->head - 1;
            out.push_back(m->head << kBlockShift);
            ++issued_;
            if (tracking_)
                filter_[m->head & 4095] = m->head;
        }
    }

    std::uint64_t issued_ = 0, issuedAtEnable_ = 0;
    std::uint64_t useful_ = 0, late_ = 0, misses_ = 0;

  private:
    struct Stream
    {
        bool valid = false;
        Addr last = 0;
        Addr head = 0;
        int dir = 0;
        std::uint64_t lastUse = 0;
    };

    StreamPrefetcherConfig cfg_;
    std::vector<Stream> streams_;
    std::uint64_t clock_ = 0;
    bool tracking_ = false;
    std::vector<Addr> filter_;
};

/**
 * Random interleavings of strided streams (both directions, several
 * strides, some far apart and some overlapping), random misses, demand
 * hits on recently issued blocks, resets, and a mid-run tracking
 * switch: every miss must produce the same prefetches and every
 * counter must agree.
 */
void
expectMatchesReference(const StreamPrefetcherConfig& cfg,
                       std::uint64_t seed, int events)
{
    StreamPrefetcher pf(cfg);
    ReferencePrefetcher ref(cfg);
    Rng rng(seed);
    std::vector<Addr> cursor(24);
    std::vector<int> stride(24);
    for (std::size_t k = 0; k < cursor.size(); ++k) {
        cursor[k] = rng.chance(0.3) ? 1000 + 8 * k : rng.below(1u << 30);
        stride[k] = static_cast<int>(rng.range(1, 3)) *
                    (rng.chance(0.5) ? 1 : -1);
    }
    std::vector<Addr> got, want, recent;
    for (int e = 0; e < events; ++e) {
        const std::uint64_t kind = rng.below(100);
        if (kind == 0) {
            pf.reset();
            ref.reset();
        } else if (kind == 1 && !pf.trackingEnabled()) {
            pf.enableTracking();
            ref.enableTracking();
        } else if (kind < 20 && !recent.empty()) {
            const Addr a = recent[rng.below(recent.size())];
            pf.observeDemandHit(a);
            ref.observeDemandHit(a);
        } else {
            Addr blk;
            if (kind < 30) {
                blk = rng.below(1u << 30);
            } else {
                const std::size_t k = rng.below(cursor.size());
                cursor[k] += static_cast<Addr>(stride[k]);
                blk = cursor[k];
            }
            got.clear();
            want.clear();
            pf.onL1Miss(blk << kBlockShift, got);
            ref.onL1Miss(blk << kBlockShift, want);
            ASSERT_EQ(got, want) << "event " << e;
            recent.insert(recent.end(), got.begin(), got.end());
            if (recent.size() > 64)
                recent.erase(recent.begin(), recent.end() - 64);
        }
        ASSERT_EQ(pf.issued(), ref.issued_) << "event " << e;
    }
    EXPECT_TRUE(pf.trackingEnabled());
    EXPECT_EQ(pf.trackedIssued(), ref.issued_ - ref.issuedAtEnable_);
    EXPECT_EQ(pf.useful(), ref.useful_);
    EXPECT_EQ(pf.late(), ref.late_);
    EXPECT_EQ(pf.demandMisses(), ref.misses_);
    EXPECT_GT(pf.issued(), 0u);
}

TEST(StreamReferenceTest, DefaultConfigMatchesTheReference)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed)
        expectMatchesReference(StreamPrefetcherConfig{}, seed, 30000);
}

TEST(StreamReferenceTest, OtherShapesMatchTheReference)
{
    // Fewer and more streams than one scan word, wide and narrow
    // windows, deep runahead.
    for (const unsigned streams : {1u, 3u, 16u, 64u, 70u}) {
        StreamPrefetcherConfig cfg;
        cfg.streams = streams;
        cfg.window = streams % 2 == 0 ? 2 : 64;
        cfg.degree = 3;
        cfg.distance = 9;
        SCOPED_TRACE(streams);
        expectMatchesReference(cfg, 40 + streams, 20000);
    }
}

TEST(StreamReferenceTest, MissesNearAddressZeroAndTheTopMatch)
{
    // Blocks at the extremes of the address space must neither match
    // an invalid stream nor wrap around into a valid one.
    StreamPrefetcher pf;
    ReferencePrefetcher ref(StreamPrefetcherConfig{});
    const Addr top = ~Addr{0} >> kBlockShift;
    std::vector<Addr> got, want;
    for (const Addr blk : {Addr{0}, Addr{1}, Addr{2}, Addr{3}, top,
                           top - 1, top - 2, top - 3, Addr{4}, top - 4}) {
        pf.onL1Miss(blk << kBlockShift, got);
        ref.onL1Miss(blk << kBlockShift, want);
        ASSERT_EQ(got, want) << blk;
    }
    EXPECT_FALSE(got.empty());
}

} // namespace
} // namespace mrp::prefetch
