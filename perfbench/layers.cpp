#include "layers.hpp"

#include <algorithm>

#include "core/predictor.hpp"
#include "measure.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

namespace {

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

void
spin(std::uint64_t ns)
{
    const auto until = Clock::now() + std::chrono::nanoseconds(ns);
    while (Clock::now() < until) {
    }
}

/**
 * Delegates every decision to the wrapped policy unchanged, so the
 * simulated outcome is identical; optionally times each decision
 * hook, burns a fixed delay in it, or records the access stream.
 */
class ProbePolicy final : public cache::LlcPolicy
{
  public:
    ProbePolicy(std::unique_ptr<cache::LlcPolicy> inner, PolicyProbe& probe)
        : inner_(std::move(inner)), probe_(probe),
          mpppb_(dynamic_cast<core::MpppbPolicy*>(inner_.get()))
    {
    }

    ~ProbePolicy() override
    {
        if (mpppb_)
            probe_.trainingEvents = mpppb_->predictor().trainingEvents();
    }

    ProbePolicy(const ProbePolicy&) = delete;
    ProbePolicy& operator=(const ProbePolicy&) = delete;

    std::string name() const override { return inner_->name(); }

    void
    onHit(const cache::AccessInfo& info, std::uint32_t set,
          std::uint32_t way) override
    {
        note(info, true);
        hook([&] { inner_->onHit(info, set, way); });
    }

    void
    onMiss(const cache::AccessInfo& info, std::uint32_t set) override
    {
        note(info, false);
        hook([&] { inner_->onMiss(info, set); });
    }

    bool
    shouldBypass(const cache::AccessInfo& info, std::uint32_t set) override
    {
        bool bypass = false;
        hook([&] { bypass = inner_->shouldBypass(info, set); });
        if (bypass && probe_.record)
            ++probe_.record->bypasses;
        return bypass;
    }

    std::uint32_t
    victimWay(const cache::AccessInfo& info, std::uint32_t set) override
    {
        std::uint32_t way = 0;
        hook([&] { way = inner_->victimWay(info, set); });
        return way;
    }

    cache::WayMask
    fillWays(const cache::AccessInfo& info, std::uint32_t set) override
    {
        return inner_->fillWays(info, set);
    }

    std::uint32_t
    victimWayIn(const cache::AccessInfo& info, std::uint32_t set,
                cache::WayMask mask) override
    {
        std::uint32_t way = 0;
        hook([&] { way = inner_->victimWayIn(info, set, mask); });
        return way;
    }

    std::uint32_t
    tenantOf(const cache::AccessInfo& info) const override
    {
        return inner_->tenantOf(info);
    }

    void
    onFill(const cache::AccessInfo& info, std::uint32_t set,
           std::uint32_t way) override
    {
        hook([&] { inner_->onFill(info, set, way); });
    }

    void
    onEvict(std::uint32_t set, std::uint32_t way) override
    {
        hook([&] { inner_->onEvict(set, way); });
    }

    void
    attachTelemetry(telemetry::MetricsRegistry& registry) override
    {
        inner_->attachTelemetry(registry);
    }

  private:
    template <typename F>
    void
    hook(F&& f)
    {
        if (!probe_.time && probe_.stallNs == 0) {
            f();
            return;
        }
        const auto t0 = Clock::now();
        if (probe_.stallNs != 0)
            spin(probe_.stallNs);
        f();
        if (probe_.time) {
            probe_.hookNs += nsSince(t0);
            ++probe_.hookCalls;
        }
    }

    void
    note(const cache::AccessInfo& info, bool hit)
    {
        LlcStream* s = probe_.record;
        if (!s)
            return;
        cache::AccessInfo copy = info;
        copy.ctx = nullptr;
        s->accesses.push_back(copy);
        s->contexts.push_back(info.ctx ? *info.ctx : cache::CoreContext{});
        s->hasContext.push_back(info.ctx != nullptr);
        s->hit.push_back(hit);
        ++(hit ? s->hits : s->misses);
    }

    std::unique_ptr<cache::LlcPolicy> inner_;
    PolicyProbe& probe_;
    core::MpppbPolicy* mpppb_;
};

std::vector<cache::AccessInfo>
pointedAccesses(const LlcStream& s)
{
    std::vector<cache::AccessInfo> out = s.accesses;
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i].ctx = s.hasContext[i] ? &s.contexts[i] : nullptr;
    return out;
}

LlcReplay
countsOf(const stats::LevelStats& st)
{
    LlcReplay r;
    r.hits = st.demandHits + st.prefetchHits + st.writebackHits;
    r.misses = st.demandMisses + st.prefetchMisses + st.writebackMisses;
    r.bypasses = st.bypasses;
    return r;
}

} // namespace

sim::PolicyFactory
probed(sim::PolicyFactory inner, PolicyProbe* probe)
{
    return [inner = std::move(inner), probe](
               const cache::CacheGeometry& geom, unsigned cores)
               -> std::unique_ptr<cache::LlcPolicy> {
        return std::make_unique<ProbePolicy>(inner(geom, cores), *probe);
    };
}

double
clockPairNs()
{
    std::vector<double> per;
    for (int rep = 0; rep < 5; ++rep) {
        constexpr int kPairs = 20000;
        double total = 0.0;
        for (int i = 0; i < kPairs; ++i)
            total += nsSince(Clock::now());
        per.push_back(total / kPairs);
    }
    return median(per);
}

std::span<const trace::Record>
CountingSource::nextChunk()
{
    const auto chunk = inner_->nextChunk();
    for (const auto& r : chunk)
        delivered_ += r.isMem() ? 1 : r.count();
    return chunk;
}

runner::RunSet
TimedExecutor::run(const std::vector<runner::RunRequest>& batch,
                   const runner::RunnerOptions& options) const
{
    std::vector<runner::RunRequest> probed_batch;
    std::vector<PolicyProbe> probes(hookTiming_ ? batch.size() : 0);
    if (hookTiming_) {
        probed_batch = batch;
        for (std::size_t i = 0; i < batch.size(); ++i) {
            auto& policy = probed_batch[i].policy;
            if (policy.factory || !policy.mpppbConfig)
                continue;
            probes[i].time = true;
            policy = runner::PolicySpec::custom(
                policy.name,
                probed(sim::makeMpppbFactory(*policy.mpppbConfig),
                       &probes[i]));
        }
    }
    const auto t0 = Clock::now();
    runner::RunSet set =
        pool_.run(hookTiming_ ? probed_batch : batch, options);
    stats_.batchS += secondsSince(t0);
    for (const auto& p : probes) {
        stats_.hookNs += p.hookNs;
        stats_.hookCalls += p.hookCalls;
    }
    for (std::size_t i = 0; i < set.results.size(); ++i) {
        stats_.runS += set.results[i].wallSeconds;
        stats_.runMs[set.results[i].benchmark].push_back(
            1e3 * set.results[i].wallSeconds);
        for (const auto& spec : batch[i].sources)
            stats_.insts += spec.instructions();
        ++stats_.runs;
    }
    return set;
}

LlcReplay
replayLlc(const LlcStream& s, const sim::PolicyFactory& factory,
          const cache::HierarchyConfig& h, unsigned cores)
{
    const cache::CacheGeometry geom(h.llcBytes, h.llcWays);
    cache::PolicyCache llc(h.llcBytes, h.llcWays, factory(geom, cores),
                           cores);
    const auto accesses = pointedAccesses(s);
    const auto t0 = Clock::now();
    for (const auto& a : accesses)
        llc.access(a);
    const double ns = nsSince(t0);
    LlcReplay r = countsOf(llc.stats());
    r.nsPerAccess = accesses.empty() ? 0.0 : ns / accesses.size();
    return r;
}

PredictorReplay
replayPredictor(const LlcStream& s, const core::MpppbConfig& cfg,
                const cache::HierarchyConfig& h, unsigned cores)
{
    const cache::CacheGeometry geom(h.llcBytes, h.llcWays);
    core::MultiperspectivePredictor pred(geom, cores, cfg.predictor);
    // The policy consults its predictor on every non-writeback access.
    struct Call
    {
        cache::AccessInfo info;
        std::uint32_t set;
        bool hit;
    };
    const auto accesses = pointedAccesses(s);
    std::vector<Call> calls;
    for (std::size_t i = 0; i < accesses.size(); ++i)
        if (accesses[i].type != cache::AccessType::Writeback)
            calls.push_back({accesses[i], geom.setIndex(accesses[i].addr),
                             static_cast<bool>(s.hit[i])});
    const auto t0 = Clock::now();
    for (const auto& c : calls)
        pred.observe(c.info, c.set, c.hit);
    const double ns = nsSince(t0);
    PredictorReplay r;
    r.calls = calls.size();
    r.nsPerCall = calls.empty() ? 0.0 : ns / calls.size();
    r.trainingEvents = pred.trainingEvents();
    return r;
}

HierarchyReplay
replayHierarchy(trace::TraceSource& src, const sim::PolicyFactory& factory,
                const cache::HierarchyConfig& h)
{
    cache::HierarchyConfig hc = h;
    hc.cores = 1;
    const cache::CacheGeometry geom(hc.llcBytes, hc.llcWays);

    std::vector<trace::Record> mem;
    src.reset();
    for (auto chunk = src.nextChunk(); !chunk.empty();
         chunk = src.nextChunk())
        for (const auto& r : chunk)
            if (r.isMem())
                mem.push_back(r);

    HierarchyReplay out;
    out.accesses = mem.size();
    std::vector<Addr> l1_misses;
    {
        // Untimed pass: outcome counts, prefetch accuracy (tracking
        // needs telemetry attached) and the L1-miss address stream.
        cache::Hierarchy hier(hc, factory(geom, 1));
        telemetry::MetricsRegistry registry;
        hier.attachTelemetry(registry);
        cache::CoreContext ctx;
        for (const auto& r : mem) {
            const auto before = hier.l1(0).stats().demandMisses;
            hier.access(0, r.pc(), r.addr(), r.op() == trace::Op::Store,
                        &ctx);
            ctx.notePc(r.pc());
            if (hier.l1(0).stats().demandMisses != before)
                l1_misses.push_back(r.addr());
        }
        out.l1Accesses = hier.l1(0).stats().demandAccesses;
        out.l1Misses = hier.l1(0).stats().demandMisses;
        out.l2Accesses = hier.l2(0).stats().demandAccesses;
        out.l2Misses = hier.l2(0).stats().demandMisses;
        out.llc = countsOf(hier.llc().stats());
        out.prefetchIssued = hier.prefetcher(0).issued();
        out.prefetchUseful = hier.prefetcher(0).useful();
    }
    {
        cache::Hierarchy hier(hc, factory(geom, 1));
        cache::CoreContext ctx;
        const auto t0 = Clock::now();
        for (const auto& r : mem) {
            hier.access(0, r.pc(), r.addr(), r.op() == trace::Op::Store,
                        &ctx);
            ctx.notePc(r.pc());
        }
        out.nsPerAccess = mem.empty() ? 0.0 : nsSince(t0) / mem.size();
    }
    {
        prefetch::StreamPrefetcher pf(hc.prefetcher);
        std::vector<Addr> issued;
        const auto t0 = Clock::now();
        for (const Addr a : l1_misses) {
            pf.onL1Miss(a, issued);
            issued.clear();
        }
        out.prefetchNsPerMiss =
            l1_misses.empty() ? 0.0 : nsSince(t0) / l1_misses.size();
        out.prefetchReplayMatches =
            !hc.prefetchEnabled || pf.issued() == out.prefetchIssued;
    }
    return out;
}

} // namespace perfbench
