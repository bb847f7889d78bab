/**
 * @file
 * The one simulation engine, simulate(), behind runSingleCore,
 * runSingleCoreMin, runMultiCore and standaloneIpc; DESIGN.md §6
 * "Simulation driver" describes the rules each entry point picks.
 */

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "cpu/core_model.hpp"
#include "policy/min.hpp"
#include "prof/profiler.hpp"
#include "sim/multi_core.hpp"
#include "sim/single_core.hpp"
#include "telemetry/session.hpp"
#include "tenant/tenant_policy.hpp"
#include "trace/stream_reader.hpp"
#include "util/logging.hpp"

namespace mrp::sim {

double
MultiCoreResult::weightedSpeedup(
    std::span<const double> single_ipc) const
{
    fatalIf(single_ipc.size() != ipc.size(), ErrorCode::Config,
            "weightedSpeedup needs one standalone IPC per core");
    double ws = 0.0;
    for (std::size_t i = 0; i < ipc.size(); ++i) {
        fatalIf(single_ipc[i] <= 0.0, ErrorCode::Config,
                "standalone IPC must be positive");
        ws += ipc[i] / single_ipc[i];
    }
    return ws;
}

namespace {

/**
 * What one run simulates; built by the public entry points. The engine
 * serves both of the paper's methodologies:
 *  - single-thread (§4.1, loop = false): one core warms on
 *    warmupFraction of its trace and is measured to the trace's end;
 *  - FIESTA (§4.2, loop = true): every core replays its source, warms
 *    until warmupInsts are retired (by all cores together, or by each
 *    core) and is measured over measureCycles of its own cycles.
 */
struct Plan
{
    std::span<trace::TraceSource* const> sources; //!< one per core
    const DriverConfig& cfg;
    PolicyFactory factory;
    bool loop = false;
    InstCount warmupInsts = 0;
    bool warmupShared = false; //!< warmupInsts counts every core's
    Cycle measureCycles = 0;
    const tenant::TenancyConfig* tenancy = nullptr; //!< null = shared
    cache::LlcObserver* observer = nullptr; //!< whole run, warmup too
};

/** What one run measured: the mix result plus single-core extras. */
struct Measured
{
    MultiCoreResult r;
    Cycle cycles = 0;      //!< core 0's measured window
    stats::LevelStats llc; //!< since the last core finished warming
};

/**
 * The passive LLC observer that drives a telemetry session: one epoch
 * tick per LLC access, plus the reuse-distance probe. It lives here,
 * not in src/telemetry, so mrp_telemetry stays free of cache-layer
 * dependencies and the cache itself can link against it.
 */
class TelemetryObserver : public cache::LlcObserver
{
  public:
    explicit TelemetryObserver(telemetry::Session& session)
        : session_(session)
    {
    }

    void
    onAccess(const cache::AccessInfo& info, bool, std::uint32_t,
             int) override
    {
        session_.reuse().observe(blockAddr(info.addr));
        session_.tick();
    }

  private:
    telemetry::Session& session_;
};

/** Events per kilo-instruction (0 over no instructions). */
double
perKilo(std::uint64_t events, InstCount insts)
{
    return insts == 0 ? 0.0
                      : 1000.0 * static_cast<double>(events) /
                            static_cast<double>(insts);
}

/** A core's position at the start or end of its measured window. */
struct Mark
{
    Cycle cycle = 0;
    InstCount insts = 0;
    std::uint64_t misses = 0; //!< the core's LLC demand misses
};

Measured
simulate(const Plan& p)
{
    const DriverConfig& cfg = p.cfg;
    const unsigned n = static_cast<unsigned>(p.sources.size());
    fatalIf(!std::isfinite(cfg.warmupFraction) ||
                cfg.warmupFraction < 0.0 || cfg.warmupFraction >= 1.0,
            ErrorCode::Config, "warmup fraction must be in [0, 1)");
    fatalIf(p.loop && p.measureCycles == 0, ErrorCode::Config,
            "measureCycles must be positive");
    fatalIf(cfg.telemetry.enabled && p.observer != nullptr,
            ErrorCode::Config,
            "telemetry cannot be combined with an external LLC "
            "observer (both need the observer slot)");

    cache::HierarchyConfig hcfg = cfg.hierarchy;
    hcfg.cores = n;
    const cache::CacheGeometry geom(hcfg.llcBytes, hcfg.llcWays);
    std::unique_ptr<cache::LlcPolicy> policy;
    tenant::TenantPartitionPolicy* tpp = nullptr;
    if (p.tenancy) {
        const std::string why =
            tenant::describeInvalid(*p.tenancy, geom.ways(), n);
        fatalIf(!why.empty(), ErrorCode::Config,
                "invalid tenancy: " + why);
        auto wrapped = std::make_unique<tenant::TenantPartitionPolicy>(
            geom, n, *p.tenancy, p.factory);
        tpp = wrapped.get();
        policy = std::move(wrapped);
    } else {
        policy = p.factory(geom, n);
    }
    Measured m;
    m.r.policy = policy->name();
    cache::Hierarchy hier(hcfg, std::move(policy));
    if (p.observer)
        hier.llc().setObserver(p.observer);

    std::vector<std::unique_ptr<cpu::CoreModel>> cores;
    for (unsigned c = 0; c < n; ++c) {
        fatalIf(p.sources[c] == nullptr, ErrorCode::Config,
                "null trace source in mix");
        // Rewind so one source can serve several sequential runs;
        // replay is identical by the TraceSource contract.
        p.sources[c]->reset();
        cores.push_back(std::make_unique<cpu::CoreModel>(
            c, hier, *p.sources[c], p.loop));
    }
    // One core is stepped directly; several interleave by stepping the
    // core whose next instruction enters the window earliest.
    auto step = [&] {
        unsigned best = 0;
        Cycle best_cycle = n > 1 ? cores[0]->nextEnterCycle() : 0;
        for (unsigned c = 1; c < n; ++c) {
            if (const Cycle e = cores[c]->nextEnterCycle(); e < best_cycle) {
                best_cycle = e;
                best = c;
            }
        }
        cores[best]->step();
    };
    auto total_retired = [&] {
        InstCount t = 0;
        for (const auto& core : cores)
            t += core->retired();
        return t;
    };
    auto mark = [&](unsigned c) {
        return Mark{cores[c]->cycle(), cores[c]->retired(),
                    hier.llc().demandMissesOf(c)};
    };
    // The one stepping loop, run for warmup and for measurement: step
    // until every core has reached a point, marking each core in @p at
    // as it gets there, and call @p after_step after every step.
    auto drive = [&](auto reached, std::vector<Mark>& at, auto after_step) {
        std::vector<bool> done(n, false);
        unsigned left = n;
        while (true) {
            for (unsigned c = 0; c < n; ++c) {
                if (!done[c] && reached(c)) {
                    done[c] = true;
                    at[c] = mark(c);
                    --left;
                }
            }
            if (left == 0)
                return;
            step();
            after_step();
        }
    };

    // instructions() is known up front for every source (file headers
    // carry it, generators hit their target exactly), so the warmup
    // window never depends on materializing the stream.
    const InstCount warm_at =
        p.loop ? p.warmupInsts
               : static_cast<InstCount>(
                     static_cast<double>(p.sources[0]->instructions()) *
                     cfg.warmupFraction);
    std::vector<Mark> base(n), end(n);
    {
        MRP_PROF_SCOPE("warmup");
        drive(
            [&](unsigned c) {
                const InstCount done =
                    p.warmupShared ? total_retired() : cores[c]->retired();
                return done >= warm_at || cores[c]->finished();
            },
            base, [] {});
    }
    // The window opens here: every count is read as its growth since
    // a baseline taken now (the per-core marks are taken as each core
    // got here, which is this same step when the cores warm together).
    // Nothing is reset, so cache and predictor state carry over.
    const bool together = n == 1 || p.warmupShared;
    const stats::LevelStats llc_base = hier.llc().stats();

    // Telemetry attached now takes the same baseline, so the llc.*
    // counters equal the window's LevelStats. The tenant.* gauges live
    // here because only the driver sees both the partition map and the
    // cache occupancy.
    std::unique_ptr<telemetry::Session> session;
    std::unique_ptr<TelemetryObserver> tobs;
    telemetry::Counter* resize_counter = nullptr;
    std::vector<telemetry::Gauge*> epoch_mpki_gauge;
    if (cfg.telemetry.enabled) {
        session = std::make_unique<telemetry::Session>(cfg.telemetry);
        auto& reg = session->registry();
        hier.attachTelemetry(reg);
        tobs = std::make_unique<TelemetryObserver>(*session);
        hier.llc().setObserver(tobs.get());
        // Delivery introspection (an execution artifact, never part
        // of deterministic reports — telemetry is opt-in).
        auto* da = dynamic_cast<trace::DecodeAheadSource*>(p.sources[0]);
        if (n == 1 && da)
            reg.gaugeFn("trace.decode_ahead.queue_depth_max", [da] {
                return static_cast<double>(da->stats().maxQueueDepth);
            });
        if (tpp) {
            resize_counter = &reg.counter("tenant.qos_resizes");
            for (unsigned t = 0; t < n; ++t) {
                const std::string prefix =
                    "tenant." + std::to_string(t) + ".";
                reg.gaugeFn(prefix + "ways", [tpp, t] {
                    return static_cast<double>(
                        tpp->partition().waysOf(t));
                });
                reg.gaugeFn(prefix + "occupancy", [&hier, t] {
                    return static_cast<double>(
                        hier.llc().ownerBlockCount(t));
                });
                epoch_mpki_gauge.push_back(
                    &reg.gauge(prefix + "epoch_mpki"));
            }
        }
    }

    // QoS epochs count total retired instructions from the moment
    // every core is measuring; each may resize the partition by one
    // way.
    std::unique_ptr<tenant::QosController> qos;
    std::vector<Mark> epoch_start(n);
    std::vector<double> epoch_mpki(n, 0.0);
    InstCount next_epoch_at = 0;
    if (tpp && p.tenancy->qos.enabled) {
        qos = std::make_unique<tenant::QosController>(*p.tenancy,
                                                      tpp->partition());
        for (unsigned c = 0; c < n; ++c)
            epoch_start[c] = mark(c);
        next_epoch_at = total_retired() + p.tenancy->qos.epochInstructions;
    }
    auto qos_epoch = [&] {
        for (unsigned t = 0; t < n; ++t) {
            const Mark now = mark(t);
            epoch_mpki[t] = perKilo(now.misses - epoch_start[t].misses,
                                    now.insts - epoch_start[t].insts);
            epoch_start[t] = now;
            if (t < epoch_mpki_gauge.size())
                epoch_mpki_gauge[t]->set(epoch_mpki[t]);
        }
        if (qos->onEpoch(epoch_mpki) && resize_counter)
            resize_counter->add();
        next_epoch_at += p.tenancy->qos.epochInstructions;
    };

    {
        // Cores keep running, and competing for the LLC, after their
        // own window has closed.
        MRP_PROF_SCOPE("measure");
        drive(
            [&](unsigned c) {
                return p.loop ? cores[c]->cycle() >=
                                    base[c].cycle + p.measureCycles
                              : cores[c]->finished();
            },
            end,
            [&] {
                if (qos && total_retired() >= next_epoch_at)
                    qos_epoch();
            });
    }

    const auto& llc = hier.llc().stats();
    panicIf(!llc.consistent(),
            "LLC statistics failed the self-consistency check");
    for (unsigned c = 0; c < n; ++c) {
        panicIf(!hier.l1(c).stats().consistent(),
                "L1 statistics failed the self-consistency check");
        panicIf(!hier.l2(c).stats().consistent(),
                "L2 statistics failed the self-consistency check");
    }
    MultiCoreResult& r = m.r;
    InstCount measured_total = 0;
    std::uint64_t window_misses = 0;
    for (unsigned c = 0; c < n; ++c) {
        const InstCount insts = end[c].insts - base[c].insts;
        const Cycle cycles = end[c].cycle - base[c].cycle;
        fatalIf(insts == 0 || cycles == 0, ErrorCode::Config,
                "measurement window is empty; trace too short for the "
                "warmup fraction");
        r.instructions.push_back(insts);
        r.ipc.push_back(static_cast<double>(insts) /
                        static_cast<double>(p.loop ? p.measureCycles
                                                   : cycles));
        const std::uint64_t misses = end[c].misses - base[c].misses;
        measured_total += insts;
        window_misses += misses;
        if (tpp)
            r.tenants.push_back({p.tenancy->tenants[c].ways,
                                 tpp->partition().waysOf(c), misses, insts,
                                 perKilo(misses, insts),
                                 p.tenancy->tenants[c].sloMpki});
    }
    m.cycles = end[0].cycle - base[0].cycle;
    m.llc = llc - llc_base;
    // With a shared window start every LLC miss since then counts, also
    // those after a core's own window closed.
    r.llcDemandMisses = together ? m.llc.demandMisses : window_misses;
    r.mpki = perKilo(r.llcDemandMisses, measured_total);
    if (qos)
        r.qosSchedule = qos->resizes();
    if (session)
        r.telemetry = session->finish();
    return m;
}

} // namespace

SingleCoreResult
runSingleCore(trace::TraceSource& source, const PolicyFactory& factory,
              const SingleCoreConfig& cfg, cache::LlcObserver* observer)
{
    trace::TraceSource* const sources[] = {&source};
    Measured m = simulate({.sources = sources,
                           .cfg = cfg,
                           .factory = factory,
                           .observer = observer});
    return {.benchmark = source.name(),
            .policy = std::move(m.r.policy),
            .instructions = m.r.instructions[0],
            .cycles = m.cycles,
            .ipc = m.r.ipc[0],
            .llcDemandAccesses = m.llc.demandAccesses,
            .llcDemandMisses = m.llc.demandMisses,
            .llcBypasses = m.llc.bypasses,
            .mpki = m.r.mpki,
            .telemetry = std::move(m.r.telemetry)};
}

SingleCoreResult
runSingleCoreMin(trace::TraceSource& source,
                 const SingleCoreConfig& cfg)
{
    // Pass 1: record the (policy-invariant) LLC reference stream. The
    // recorder needs the observer slot, so telemetry (if requested)
    // only covers the measured MIN pass.
    SingleCoreConfig pass1_cfg = cfg;
    pass1_cfg.telemetry.enabled = false;
    policy::LlcAccessRecorder recorder;
    {
        MRP_PROF_SCOPE("min.record");
        runSingleCore(source, PolicyRegistry::make("LRU"), pass1_cfg,
                      &recorder);
    }
    // Pass 2: replay under MIN over the identical record sequence
    // (the TraceSource contract guarantees reset() replays exactly).
    MRP_PROF_SCOPE("min.replay");
    auto next_use = policy::computeNextUse(recorder.sequence());
    SingleCoreResult r = runSingleCore(
        source,
        [&next_use](const cache::CacheGeometry& geom, unsigned) {
            return std::make_unique<policy::MinPolicy>(
                geom, std::move(next_use));
        },
        cfg);
    r.policy = "MIN";
    return r;
}

MultiCoreResult
runMultiCore(std::span<trace::TraceSource* const> mix,
             const PolicyFactory& factory, const MultiCoreConfig& cfg)
{
    fatalIf(mix.size() < 2, ErrorCode::Config,
            "multi-core mixes need at least two sources");
    const bool tenants = cfg.tenancy.configured();
    // A tenant's window starts when *it* has retired its share (and
    // stepped at least once), whatever its co-runners do.
    const InstCount share =
        std::max<InstCount>(cfg.warmupInstructions / mix.size(), 1);
    MultiCoreResult r =
        simulate({.sources = mix,
                  .cfg = cfg,
                  .factory = factory,
                  .loop = true,
                  .warmupInsts = tenants ? share : cfg.warmupInstructions,
                  .warmupShared = !tenants,
                  .measureCycles = cfg.measureCycles,
                  .tenancy = tenants ? &cfg.tenancy : nullptr})
            .r;
    r.mixName = mix[0]->name();
    for (std::size_t c = 1; c < mix.size(); ++c)
        r.mixName += "+" + mix[c]->name();
    return r;
}

double
standaloneIpc(trace::TraceSource& source, const MultiCoreConfig& cfg)
{
    MultiCoreConfig alone = cfg;
    alone.telemetry.enabled = false;
    trace::TraceSource* const sources[] = {&source};
    // Same per-thread warmup share as a 4-core mixed run.
    return simulate({.sources = sources,
                     .cfg = alone,
                     .factory = PolicyRegistry::make("LRU"),
                     .loop = true,
                     .warmupInsts = cfg.warmupInstructions / 4,
                     .measureCycles = cfg.measureCycles})
        .r.ipc[0];
}

} // namespace mrp::sim
