#include "mrc/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <mutex>
#include <optional>
#include <thread>

#include "cache/basic_cache.hpp"
#include "mrc/shards.hpp"
#include "mrc/stack_distance.hpp"
#include "prof/profiler.hpp"
#include "stats/reuse_histogram.hpp"
#include "util/bitfield.hpp"
#include "util/logging.hpp"

namespace mrp::mrc {

MrcMode
parseMrcMode(const std::string& name)
{
    if (name == "exact")
        return MrcMode::Exact;
    if (name == "shards")
        return MrcMode::Shards;
    if (name == "shards-adj")
        return MrcMode::ShardsAdj;
    fatal(ErrorCode::Config,
          "unknown MRC mode '" + name +
              "' (want exact, shards, or shards-adj)");
}

const char*
mrcModeName(MrcMode mode)
{
    switch (mode) {
    case MrcMode::Exact: return "exact";
    case MrcMode::Shards: return "shards";
    case MrcMode::ShardsAdj: return "shards-adj";
    }
    fatal(ErrorCode::Internal, "unreachable MRC mode");
}

std::vector<Addr>
defaultSizeLadder()
{
    std::vector<Addr> sizes;
    for (Addr b = 16 * 1024; b <= 8 * 1024 * 1024; b *= 2)
        sizes.push_back(b);
    return sizes;
}

namespace {

/** Validated, ascending, deduplicated capacity list. */
std::vector<Addr>
normalizeSizes(const MrcConfig& cfg)
{
    std::vector<Addr> sizes =
        cfg.sizesBytes.empty() ? defaultSizeLadder() : cfg.sizesBytes;
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    for (const Addr bytes : sizes) {
        fatalIf(bytes < kBlockBytes ||
                    !isPowerOfTwo(bytes / kBlockBytes) ||
                    bytes % kBlockBytes != 0,
                ErrorCode::Config,
                "MRC capacity " + std::to_string(bytes) +
                    " bytes is not a power-of-two number of " +
                    std::to_string(kBlockBytes) + "-byte blocks");
    }
    return sizes;
}

} // namespace

MrcProfile
buildProfile(trace::TraceSource& source, const MrcConfig& cfg)
{
    MRP_PROF_SCOPE("mrc.build");
    const std::vector<Addr> sizes = normalizeSizes(cfg);
    fatalIf(cfg.warmupFraction < 0.0 || cfg.warmupFraction >= 1.0,
            ErrorCode::Config,
            "MRC warmup fraction must be in [0, 1)");
    const bool sampled = cfg.mode != MrcMode::Exact;
    fatalIf(cfg.mode == MrcMode::ShardsAdj && cfg.maxSamples == 0,
            ErrorCode::Config,
            "shards-adj needs a positive sample cap");

    // The same upper-level filter the simulator's Hierarchy applies
    // (prefetch off): the stack model must see the LLC's reference
    // stream, not the raw trace — with a 256KB L2 above a 128KB LLC
    // the two differ drastically.
    cache::BasicCache l1("L1D", cfg.hierarchy.l1Bytes,
                         cfg.hierarchy.l1Ways);
    cache::BasicCache l2("L2", cfg.hierarchy.l2Bytes,
                         cfg.hierarchy.l2Ways);
    StackDistanceTracker stack;
    std::optional<ShardsSampler> sampler;
    if (sampled)
        sampler.emplace(cfg.rateLog2, cfg.mode == MrcMode::ShardsAdj
                                          ? cfg.maxSamples
                                          : 0);
    stats::Log2Histogram hist;
    std::uint64_t cold = 0;          // sampled cold demand samples
    std::uint64_t demand = 0;        // all demand samples (full stream)
    std::uint64_t sampledDemand = 0; // demand samples in the histogram

    source.reset();
    const auto warmInsts = static_cast<InstCount>(
        static_cast<double>(source.instructions()) *
        cfg.warmupFraction);
    InstCount insts = 0;
    InstCount measuredInsts = 0;

    // One LLC-level touch: demand accesses are counted (when inside
    // the measured window), writeback accesses only refresh recency —
    // exactly how PolicyCache splits demand from writeback statistics.
    const auto llcTouch = [&](Addr block, bool is_demand,
                              bool measuring) {
        if (!sampled) {
            const std::uint64_t d = stack.touch(block);
            if (is_demand && measuring) {
                ++demand;
                ++sampledDemand;
                if (d == StackDistanceTracker::kCold)
                    ++cold;
                else
                    hist.record(d);
            }
            return;
        }
        if (is_demand && measuring)
            ++demand;
        if (!sampler->keeps(block))
            return;
        // Rate at access time: fixed-size thresholds only ever drop,
        // and a distance sampled at rate R estimates d/R full-stream
        // distinct blocks.
        const double rate = sampler->rate();
        const std::uint64_t d = stack.touch(block);
        if (d == StackDistanceTracker::kCold)
            for (const std::uint64_t evicted : sampler->insert(block))
                stack.erase(evicted);
        if (is_demand && measuring) {
            ++sampledDemand;
            if (d == StackDistanceTracker::kCold)
                ++cold;
            else
                hist.record(static_cast<std::uint64_t>(
                    std::llround(static_cast<double>(d) / rate)));
        }
    };

    for (auto chunk = source.nextChunk(); !chunk.empty();
         chunk = source.nextChunk()) {
        for (const auto& r : chunk) {
            const bool measuring = insts >= warmInsts;
            if (r.isMem()) {
                const Addr addr = r.addr();
                const bool write = r.op() == trace::Op::Store;
                // Mirror of Hierarchy::access with prefetching off.
                if (!l1.access(addr, write)) {
                    if (!l2.access(addr, false)) {
                        llcTouch(blockAddr(addr), true, measuring);
                        const auto v2 = l2.fill(addr, false);
                        if (v2.valid && v2.dirty)
                            llcTouch(blockAddr(v2.blockAddress), false,
                                     measuring);
                    }
                    const auto v1 = l1.fill(addr, write);
                    if (v1.valid && v1.dirty &&
                        !l2.markDirty(v1.blockAddress)) {
                        // Write-allocate the L1 victim in L2, like
                        // Hierarchy::writebackToL2.
                        const auto v = l2.fill(v1.blockAddress, true);
                        if (v.valid && v.dirty)
                            llcTouch(blockAddr(v.blockAddress), false,
                                     measuring);
                    }
                }
            }
            insts += r.count();
            if (measuring)
                measuredInsts += r.count();
        }
    }

    if (sampled) {
        // SHARDS_adj: the sampled population should hold rate * N
        // accesses; add the expected-minus-actual difference to the
        // smallest-distance bucket (it perturbs only the curve's
        // tiny-capacity end).
        const double expected =
            static_cast<double>(demand) * sampler->rate();
        hist.addToFirstBucket(expected -
                              static_cast<double>(sampledDemand));
    }

    MrcProfile p;
    p.benchmark = source.name();
    p.mode = mrcModeName(cfg.mode);
    p.instructions = measuredInsts;
    p.demandSamples = demand;
    p.sampledSamples = sampledDemand;
    p.coldSamples = cold;
    p.samplingRate = sampled ? sampler->rate() : 1.0;
    p.maxSamples = cfg.mode == MrcMode::ShardsAdj ? cfg.maxSamples : 0;
    p.samplerPeakOccupancy =
        sampled ? sampler->maxOccupancy() : stack.liveKeys();
    p.samplerEvictions = sampled ? sampler->evictions() : 0;

    const double denom = static_cast<double>(cold) + hist.total();
    p.points.reserve(sizes.size());
    for (const Addr bytes : sizes) {
        const std::uint64_t blocks = bytes / kBlockBytes;
        const auto m = static_cast<unsigned>(std::bit_width(blocks) - 1);
        double ratio = 0.0;
        if (denom > 0.0) {
            const double missW = static_cast<double>(cold) +
                                 (hist.total() - hist.weightBelowPow2(m));
            ratio = std::clamp(missW / denom, 0.0, 1.0);
        }
        p.points.push_back({bytes, ratio});
    }

    if (cfg.registry != nullptr) {
        auto& reg = *cfg.registry;
        reg.gauge("mrc.demand_samples")
            .set(static_cast<double>(demand));
        reg.gauge("mrc.sampled_samples")
            .set(static_cast<double>(sampledDemand));
        reg.gauge("mrc.stack.live_blocks")
            .set(static_cast<double>(stack.liveKeys()));
        reg.gauge("mrc.sampler.peak_occupancy")
            .set(static_cast<double>(p.samplerPeakOccupancy));
        reg.gauge("mrc.sampler.final_rate").set(p.samplingRate);
        reg.gauge("mrc.sampler.evictions")
            .set(static_cast<double>(p.samplerEvictions));
    }
    return p;
}

std::vector<MrcProfile>
profileCorpus(const std::vector<trace::TraceSpec>& corpus,
              const MrcConfig& cfg, unsigned jobs,
              const trace::TraceSpec::OpenOptions& opts)
{
    MRP_PROF_SCOPE("mrc.corpus");
    // Gauges are a per-pass sink; concurrent passes must not share
    // one registry, so corpus workers run without it.
    MrcConfig worker_cfg = cfg;
    worker_cfg.registry = nullptr;

    std::vector<MrcProfile> out(corpus.size());
    if (jobs == 0)
        jobs = std::max(1u, std::thread::hardware_concurrency());
    const std::size_t workers =
        std::min<std::size_t>(jobs, corpus.size());

    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    ErrorCode errCode = ErrorCode::Internal;
    std::string errMsg;
    std::mutex errMutex;

    const auto work = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= corpus.size() || failed.load())
                return;
            try {
                auto src = corpus[i].open(opts);
                out[i] = buildProfile(*src, worker_cfg);
            } catch (const FatalError& e) {
                const std::lock_guard<std::mutex> lock(errMutex);
                if (!failed.exchange(true)) {
                    errCode = e.code();
                    errMsg = e.what();
                }
            }
        }
    };

    if (workers <= 1) {
        work();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (std::size_t w = 0; w < workers; ++w)
            pool.emplace_back(work);
        for (auto& t : pool)
            t.join();
    }
    if (failed.load())
        throw FatalError(errCode, errMsg);
    return out;
}

} // namespace mrp::mrc
