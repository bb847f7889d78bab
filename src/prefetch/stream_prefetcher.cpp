#include "prefetch/stream_prefetcher.hpp"

#include <algorithm>

#include "prof/profiler.hpp"
#include "util/logging.hpp"

namespace mrp::prefetch {

StreamPrefetcher::StreamPrefetcher(const StreamPrefetcherConfig& cfg)
    : cfg_(cfg), lastBlock_(cfg.streams, kNoBlock),
      lastUse_(cfg.streams, 0), streams_(cfg.streams)
{
    fatalIf(cfg.streams == 0, "prefetcher needs at least one stream");
}

void
StreamPrefetcher::reset()
{
    std::fill(lastBlock_.begin(), lastBlock_.end(), kNoBlock);
    std::fill(lastUse_.begin(), lastUse_.end(), 0);
    std::fill(streams_.begin(), streams_.end(), Stream{});
    useClock_ = 0;
    if (tracking_)
        enableTracking(); // restart the tracked period cleanly
}

void
StreamPrefetcher::enableTracking()
{
    tracking_ = true;
    filter_.assign(kFilterSlots, kNoBlock);
    issuedAtEnable_ = issued_;
    useful_ = 0;
    late_ = 0;
    demandMisses_ = 0;
}

void
StreamPrefetcher::observeDemandHit(Addr addr)
{
    if (!tracking_)
        return;
    const Addr blk = blockAddr(addr);
    Addr& slot = filter_[blk & (kFilterSlots - 1)];
    if (slot == blk) {
        ++useful_;
        slot = kNoBlock;
    }
}

double
StreamPrefetcher::accuracy() const
{
    const std::uint64_t n = trackedIssued();
    return n == 0 ? 0.0
                  : static_cast<double>(useful_) /
                        static_cast<double>(n);
}

double
StreamPrefetcher::coverage() const
{
    const std::uint64_t covered_plus_missed = useful_ + demandMisses_;
    return covered_plus_missed == 0
               ? 0.0
               : static_cast<double>(useful_) /
                     static_cast<double>(covered_plus_missed);
}

void
StreamPrefetcher::onL1Miss(Addr addr, std::vector<Addr>& out)
{
    MRP_PROF_SCOPE_HOT("prefetch.train");
    const Addr blk = blockAddr(addr);
    ++useClock_;

    if (tracking_) {
        ++demandMisses_;
        Addr& slot = filter_[blk & (kFilterSlots - 1)];
        if (slot == blk) {
            ++late_;
            slot = kNoBlock;
        }
    }

    // A stream matches when 0 < |blk - lastBlock| <= window: the
    // unsigned delta - 1 wraps the zero distance out of range, and an
    // invalid stream's kNoBlock is out of range of every block, so one
    // compare per stream finds the first match in index order.
    const std::size_t n = lastBlock_.size();
    std::size_t m = 0;
    for (; m < n; ++m) {
        const Addr ref = lastBlock_[m];
        const Addr delta = blk > ref ? blk - ref : ref - blk;
        if (delta - 1 < cfg_.window)
            break;
    }
    if (m == n) {
        // Allocate a stream: the first invalid one, else the first
        // least recently used (invalid streams have lastUse 0).
        std::size_t lru = 0;
        for (std::size_t s = 1; s < lastUse_.size(); ++s)
            if (lastUse_[s] < lastUse_[lru])
                lru = s;
        lastBlock_[lru] = blk;
        lastUse_[lru] = useClock_;
        streams_[lru] = Stream{blk, 0};
        return;
    }

    Stream& st = streams_[m];
    lastUse_[m] = useClock_;
    if (st.direction == 0) {
        // Second miss decides the direction (paper: at most two misses).
        st.direction = blk > lastBlock_[m] ? +1 : -1;
        st.head = blk;
    }
    lastBlock_[m] = blk;

    // Keep the prefetch head ahead of the miss in the stream direction.
    const int dir = st.direction;
    const auto ahead_of = [dir](Addr a, Addr b) {
        return dir > 0 ? a > b : a < b;
    };
    if (!ahead_of(st.head, blk))
        st.head = blk;

    const Addr limit = dir > 0 ? blk + cfg_.distance : blk - cfg_.distance;
    unsigned emitted = 0;
    while (emitted < cfg_.degree && ahead_of(limit, st.head)) {
        st.head = dir > 0 ? st.head + 1 : st.head - 1;
        out.push_back(st.head << kBlockShift);
        ++issued_;
        ++emitted;
        if (tracking_)
            filter_[st.head & (kFilterSlots - 1)] = st.head;
    }
}

} // namespace mrp::prefetch
