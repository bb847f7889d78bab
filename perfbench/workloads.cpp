#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <span>

#include "core/mpppb.hpp"
#include "layers.hpp"
#include "sim/multi_core.hpp"
#include "sim/single_core.hpp"
#include "sweep/objective.hpp"
#include "sweep/search_space.hpp"
#include "sweep/strategy.hpp"
#include "sweep/study.hpp"
#include "trace/stream_reader.hpp"
#include "trace/workloads.hpp"
#include "util/json_reader.hpp"
#include "util/logging.hpp"

namespace perfbench {

namespace {

constexpr int kSetups = 5;
constexpr unsigned kSweepJobs = 2;
/** Records per chunk of in-memory sources; bounds CountingSource's
 * read-ahead to a few thousand instructions per core. */
constexpr std::size_t kChunkRecords = 4096;

unsigned
suiteIndex(const std::string& name)
{
    const auto names = trace::suiteNames();
    const auto it = std::find(names.begin(), names.end(), name);
    fatalIf(it == names.end(), "unknown suite benchmark " + name);
    return static_cast<unsigned>(it - names.begin());
}

/** One simulation: a policy over one trace (single-core) or a mix. */
struct Cell
{
    std::string label;
    sim::PolicyFactory factory;
    std::optional<core::MpppbConfig> mpppb; //!< predictor replay config
    std::vector<CountingSource*> sources;   //!< 1 = single-core
    bool reference = false; //!< LRU normalisation of the same sources
    bool timed = true;      //!< in every trial, else once afterwards
};

/** Driver configurations of a workload. */
struct Config
{
    sim::SingleCoreConfig single;
    sim::MultiCoreConfig multi;
};

/** What one set-up produces. */
struct Inputs
{
    std::vector<std::unique_ptr<trace::Trace>> traces;
    std::vector<std::unique_ptr<CountingSource>> sources;
    std::vector<Cell> cells;
    std::map<const trace::TraceSource*, double> standaloneIpc;
    std::vector<trace::TraceSpec> specs; //!< the generated traces, as specs
    std::vector<std::string> files;
    double genS = 0.0, genInsts = 0.0;
    double writeS = 0.0, writeRecs = 0.0;
};

const trace::Trace&
generate(Inputs& in, const std::string& name, InstCount insts,
         std::uint64_t salt)
{
    const unsigned idx = suiteIndex(name);
    const auto t0 = Clock::now();
    auto t = std::make_unique<trace::Trace>(
        trace::makeSuiteTrace(idx, insts, salt));
    in.genS += secondsSince(t0);
    in.genInsts += static_cast<double>(t->instructions());
    in.specs.push_back(trace::TraceSpec::suite(idx, insts, salt));
    in.traces.push_back(std::move(t));
    return *in.traces.back();
}

CountingSource*
addSource(Inputs& in, std::unique_ptr<trace::TraceSource> src)
{
    in.sources.push_back(std::make_unique<CountingSource>(std::move(src)));
    return in.sources.back().get();
}

CountingSource*
memorySource(Inputs& in, const trace::Trace& t)
{
    return addSource(
        in, std::make_unique<trace::MaterializedTraceSource>(t, kChunkRecords));
}

/** Write @p t as a v3 file, timing the writer. */
void
writeTrace(Inputs& in, const trace::Trace& t, const std::string& path)
{
    const auto t0 = Clock::now();
    trace::ChunkedTraceWriter w(path, t.name());
    w.append(t.records());
    w.finish();
    in.writeS += secondsSince(t0);
    in.writeRecs += static_cast<double>(t.records().size());
}

void
pairCells(Inputs& in, const std::string& name, CountingSource* src,
          const std::string& policy, const core::MpppbConfig& cfg,
          bool reference_timed)
{
    in.cells.push_back({name + "/" + policy,
                        sim::PolicyRegistry::make(policy), cfg, {src},
                        false, true});
    in.cells.push_back({name + "/LRU", sim::PolicyRegistry::make("LRU"),
                        std::nullopt, {src}, true, reference_timed});
}

// --- the cell workloads ---------------------------------------------

constexpr InstCount kSingleInsts = 1000000;

/** LLC-bound traces where MPPPB and LRU differ (fig6's cells). */
Inputs
setupStLlc(const Options& opt, const Config&)
{
    Inputs in;
    for (const char* name : {"thrash.2x", "gups.2x", "mixpc.hi",
                             "stream.mid"}) {
        const auto& t = generate(in, name, kSingleInsts, opt.seed);
        pairCells(in, name, memorySource(in, t), "MPPPB",
                  core::singleThreadMpppbConfig(), true);
    }
    return in;
}

/** L1/L2-resident traces streamed back from v3 files. */
Inputs
setupStL1(const Options& opt, const Config&)
{
    Inputs in;
    for (const char* name : {"compute.med", "nest.l2"}) {
        const auto& t = generate(in, name, kSingleInsts, opt.seed);
        const std::string path =
            opt.workDir + "/st_l1." + name + ".trace";
        writeTrace(in, t, path);
        in.files.push_back(path);
        in.traces.pop_back(); // the simulation reads the file only
        pairCells(in, name,
                  addSource(in, std::make_unique<trace::FileTraceSource>(
                                    path, trace::FileMode::Buffered)),
                  "MPPPB", core::singleThreadMpppbConfig(), false);
    }
    return in;
}

/**
 * Two 4-core mixes drawn by the seed from a pool of eight, split into
 * four pairs of like traces: each mix takes one trace of every pair,
 * so every seed loads the shared LLC alike while the co-runners and
 * core order change.
 */
Inputs
setupMcMix(const Options& opt, const Config& cfg)
{
    static const std::vector<std::array<const char*, 2>> pairs = {
        {"thrash.2x", "gups.2x"},
        {"mixpc.hi", "stream.mid"},
        {"scan.a", "phase.ab"},
        {"sets.hotcold", "chase.4m"}};
    constexpr InstCount kRegion = 500000;
    Inputs in;
    std::mt19937_64 rng(opt.seed);
    std::array<std::vector<CountingSource*>, 2> mixes;
    for (const auto& pair : pairs) {
        const bool swap = rng() & 1;
        for (std::size_t k = 0; k < 2; ++k) {
            const auto& t = generate(in, pair[k], kRegion, opt.seed);
            CountingSource* src = memorySource(in, t);
            in.standaloneIpc[src] = sim::standaloneIpc(*src, cfg.multi);
            mixes[k ^ (swap ? 1 : 0)].push_back(src);
        }
    }
    for (auto& mix : mixes) {
        std::shuffle(mix.begin(), mix.end(), rng);
        std::string name = mix[0]->name();
        for (std::size_t c = 1; c < mix.size(); ++c)
            name += "+" + mix[c]->name();
        in.cells.push_back({name + "/MPPPB-MC",
                            sim::PolicyRegistry::make("MPPPB-MC"),
                            core::multiCoreMpppbConfig(), mix, false,
                            true});
        in.cells.push_back({name + "/LRU", sim::PolicyRegistry::make("LRU"),
                            std::nullopt, mix, true, true});
    }
    return in;
}

/** Simulated outcome of one cell. */
struct Outcome
{
    std::vector<std::uint64_t> counters;
    std::uint64_t insts = 0; //!< simulated, warm-up included, all cores
    double perf = 0.0;       //!< IPC, or weighted speedup of a mix
    double mpki = 0.0;
};

std::uint64_t
delivered(const Cell& c)
{
    std::uint64_t n = 0;
    for (const auto* s : c.sources)
        n += s->delivered();
    return n;
}

Outcome
simulate(const Cell& c, const sim::PolicyFactory& f, const Config& cfg,
         const Inputs& in)
{
    const std::uint64_t before = delivered(c);
    Outcome o;
    if (c.sources.size() == 1) {
        const auto r = sim::runSingleCore(*c.sources[0], f, cfg.single);
        o.counters = {r.llcDemandAccesses,
                      r.llcDemandAccesses - r.llcDemandMisses,
                      r.llcDemandMisses, r.llcBypasses, r.instructions,
                      r.cycles};
        o.perf = r.ipc;
        o.mpki = r.mpki;
    } else {
        const std::vector<trace::TraceSource*> mix(c.sources.begin(),
                                                   c.sources.end());
        const auto r = sim::runMultiCore(
            std::span<trace::TraceSource* const>(mix), f, cfg.multi);
        o.counters = {r.llcDemandMisses};
        std::vector<double> alone;
        for (std::size_t k = 0; k < mix.size(); ++k) {
            o.counters.push_back(r.instructions[k]);
            alone.push_back(in.standaloneIpc.at(c.sources[k]));
        }
        o.perf = r.weightedSpeedup(alone);
        o.mpki = r.mpki;
    }
    o.insts = delivered(c) - before;
    return o;
}

double
div0(double a, double b)
{
    return b > 0.0 ? a / b : 0.0;
}

double
sum(const std::vector<double>& v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

/** Untraced host seconds of one repeated unit of work. */
struct UnitSamples
{
    std::vector<double> seconds; //!< reference seconds
    double insts = 0.0; //!< simulated per repetition
    double sims = 0.0;  //!< simulations per repetition
};

/** Timings of the measured phase. */
struct Phase
{
    /** Per cell (or per study); the end-to-end rates come from the sum
     * of the units' median times, which is steadier on a shared host
     * than the median of whole trials. */
    std::map<std::string, UnitSamples> units;
    /** Untraced simulation times in ms, per cell (per trace on
     * sweep_ga, whose candidates differ run to run). */
    std::map<std::string, std::vector<double>> simMs;
    std::vector<double> roundS;       //!< untraced trials
    std::vector<double> roundInsts;
    std::vector<double> tracedS;      //!< traced trials
    std::vector<double> tracedInsts;
    std::vector<TrialSample> trials;
    std::vector<double> trialThreads; //!< busy threads expected per trial
    double keySimS = 0.0;   //!< untraced, non-reference cells
    double keyInsts = 0.0;
    PolicyProbe timing;     //!< hook times of the traced trials
    HostProbe host;
};

void
recordTrial(Phase& p, bool traced, const TrialSample& s, double insts,
            double threads)
{
    p.trials.push_back(s);
    p.trialThreads.push_back(threads);
    (traced ? p.tracedS : p.roundS).push_back(s.wallS);
    (traced ? p.tracedInsts : p.roundInsts).push_back(insts);
}

/** Trials: each runs every timed cell once; traced ones alternate. */
Phase
runCells(const Options& opt, const Config& cfg, const Inputs& in,
         RunReport& rep, std::map<std::string, Outcome>& first)
{
    Phase p;
    p.timing.time = true;
    PolicyProbe stall;
    stall.stallNs = opt.stallNs;
    const auto check = [&](const Cell& c, const Outcome& o) {
        const auto [it, fresh] = first.emplace(c.label, o);
        if (!fresh && it->second.counters != o.counters)
            rep.fail(c.label + ": simulated counters differ between trials");
    };
    const auto start = Clock::now();
    for (unsigned round = 0;
         round < 4 || secondsSince(start) < opt.seconds; ++round) {
        const bool traced = opt.trace && round % 2 == 1;
        p.host.maybeSample(0.25);
        const TrialMeter meter;
        double insts = 0.0;
        for (const auto& c : in.cells) {
            if (!c.timed)
                continue;
            sim::PolicyFactory f = c.factory;
            if (opt.stallNs != 0)
                f = probed(f, &stall);
            if (traced)
                f = probed(f, &p.timing);
            ++rep.attempted;
            const auto t0 = Clock::now();
            Outcome o;
            try {
                o = simulate(c, f, cfg, in);
            } catch (const std::exception& e) {
                rep.fail(c.label + ": " + e.what());
                continue;
            }
            const double s = secondsSince(t0);
            check(c, o);
            insts += static_cast<double>(o.insts);
            if (!traced) {
                UnitSamples& u = p.units[c.label];
                u.seconds.push_back(s * p.host.lastScale());
                u.insts = static_cast<double>(o.insts);
                u.sims = 1.0;
                p.simMs[c.label].push_back(1e3 * s * p.host.lastScale());
                if (!c.reference) {
                    p.keySimS += s;
                    p.keyInsts += static_cast<double>(o.insts);
                }
            }
        }
        recordTrial(p, traced, meter.stop(), insts, 1.0);
    }
    for (const auto& c : in.cells) {
        if (c.timed)
            continue;
        ++rep.attempted;
        try {
            check(c, simulate(c, c.factory, cfg, in));
        } catch (const std::exception& e) {
            rep.fail(c.label + ": " + e.what());
        }
    }
    return p;
}

// --- metrics ----------------------------------------------------------

std::vector<double>
ratios(const std::vector<double>& num, const std::vector<double>& den)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < num.size() && i < den.size(); ++i)
        if (den[i] > 0.0)
            out.push_back(num[i] / den[i]);
    return out;
}

long
peakRssKb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

void
addEndToEnd(RunReport& rep, const Phase& p, double setup_s,
            double llc_mpki, double speedup)
{
    char probe[160];
    std::snprintf(probe, sizeof probe,
                  "host-time metrics are in reference seconds: each "
                  "trial scaled by the probe before it (median x%.4f, "
                  "%zu probes)",
                  p.host.scale(), p.host.samples());
    rep.notes.push_back(probe);
    double unit_s = 0.0, insts = 0.0, sims = 0.0;
    std::size_t samples = 0;
    for (const auto& [key, u] : p.units) {
        unit_s += median(u.seconds);
        insts += u.insts;
        sims += u.sims;
        samples += u.seconds.size();
    }
    const std::string basis = "sum of medians over " +
                              std::to_string(p.units.size()) + " units, " +
                              std::to_string(samples) + " samples";
    rep.add("setup_s", setup_s, "s",
            "median of " + std::to_string(kSetups) +
                " set-ups, each scaled by the probe before it");
    rep.add("sim_minsts_per_s", div0(insts, unit_s) / 1e6, "Minst/s", basis);
    // Cells differ in cost, so the median of all simulations would sit
    // between their clusters; each cell's median is averaged instead.
    std::vector<double> all_ms;
    double p50_sum = 0.0;
    for (const auto& [key, ms] : p.simMs) {
        p50_sum += median(ms);
        all_ms.insert(all_ms.end(), ms.begin(), ms.end());
    }
    rep.add("run_p50_ms", div0(p50_sum, p.simMs.size()), "ms",
            "mean of " + std::to_string(p.simMs.size()) +
                " per-cell medians, n=" + std::to_string(all_ms.size()));
    const Tail t = tail(all_ms);
    char buf[64];
    std::snprintf(buf, sizeof buf, "p%.1f, n=%zu, %zu above", t.percentile,
                  t.samples, t.above);
    rep.add("run_tail_ms", t.value, "ms", buf);
    rep.add("sims_per_hour", 3600.0 * div0(sims, unit_s), "1/h", basis);
    rep.add("peak_rss_mb", static_cast<double>(peakRssKb()) / 1024.0, "MB");
    const double attempted = static_cast<double>(std::max<std::uint64_t>(
        rep.attempted, 1));
    rep.add("ops_ok_ratio",
            1.0 - static_cast<double>(rep.failed) / attempted, "ratio",
            "ops_failed_ratio=" +
                std::to_string(static_cast<double>(rep.failed) /
                               attempted) +
                " of " + std::to_string(rep.attempted) + " attempted");
    rep.add("llc_mpki", llc_mpki, "MPKI");
    rep.add("speedup_vs_lru", speedup, "x");
}

/** Express the per-layer host times in reference units, as the
 * end-to-end ones are. */
void
scaleLayerTimes(RunReport& rep, const HostProbe& host)
{
    for (auto& m : rep.metrics)
        if (m.layer && (m.unit == "ns" || m.unit == "ms"))
            m.value *= host.scale();
}

/** Noise and tracing-cost self-report (per-layer list). */
void
addInstrumentMetrics(RunReport& rep, const Phase& p)
{
    const auto mips = ratios(p.roundInsts, p.roundS);
    std::string trials = "untraced trials, Minst/s:";
    for (const double x : mips)
        trials += " " + std::to_string(x / 1e6).substr(0, 5);
    rep.notes.push_back(trials);
    rep.layer("bench.noise_iqr_pct", iqrPercent(mips), "%",
            "IQR/median of " + std::to_string(mips.size()) +
                " untraced trials");
    double flagged = 0.0;
    for (std::size_t i = 0; i < p.trials.size(); ++i)
        flagged += suspect(p.trials[i], p.trialThreads[i]) ? 1.0 : 0.0;
    rep.layer("bench.flagged_trials", flagged, "count",
            "of " + std::to_string(p.trials.size()) +
                " (CPU share < 85% or > 50 preemptions/s); kept");
    const double traced = median(ratios(p.tracedInsts, p.tracedS));
    rep.layer("bench.trace_overhead_pct",
            traced > 0.0 ? 100.0 * (median(mips) / traced - 1.0) : 0.0,
            "%", "untraced vs traced trials, interleaved");
}

/** Sums over the replayed cells, turned into per-layer metrics. */
struct LayerSums
{
    double llcNs = 0, llcN = 0, lruNs = 0, coreNs = 0, coreN = 0;
    double train = 0, hierNs = 0, hierN = 0, hierInsts = 0;
    double l1A = 0, l1M = 0, l2A = 0, l2M = 0;
    double pfNs = 0, pfIssued = 0, pfUseful = 0;
    double accesses = 0, hits = 0, misses = 0, bypasses = 0, insts = 0;
};

bool
sameCounts(const LlcReplay& r, const LlcStream& s)
{
    return r.hits == s.hits && r.misses == s.misses &&
           r.bypasses == s.bypasses;
}

/**
 * Record each non-reference cell's LLC stream and replay it through
 * each layer alone. Every replay that can reproduce the live run must
 * match its hit, miss and bypass counts, or the cell fails.
 */
LayerSums
replayCells(const Config& cfg, const Inputs& in, RunReport& rep,
            const std::map<std::string, Outcome>* first)
{
    LayerSums L;
    const auto lru = sim::PolicyRegistry::make("LRU");
    for (const auto& c : in.cells) {
        if (c.reference)
            continue;
        const bool multi = c.sources.size() > 1;
        const auto cores = static_cast<unsigned>(c.sources.size());
        const auto& h = multi ? cfg.multi.hierarchy : cfg.single.hierarchy;
        LlcStream stream;
        PolicyProbe rec;
        rec.record = &stream;
        ++rep.attempted;
        Outcome o;
        try {
            o = simulate(c, probed(c.factory, &rec), cfg, in);
        } catch (const std::exception& e) {
            rep.fail(c.label + ": " + e.what());
            continue;
        }
        bool ok = true;
        if (first) {
            const auto it = first->find(c.label);
            ok = it != first->end() && it->second.counters == o.counters;
        }
        L.accesses += static_cast<double>(stream.accesses.size());
        L.hits += static_cast<double>(stream.hits);
        L.misses += static_cast<double>(stream.misses);
        L.bypasses += static_cast<double>(stream.bypasses);
        L.insts += static_cast<double>(o.insts);

        const auto live = replayLlc(stream, c.factory, h, cores);
        ok = ok && sameCounts(live, stream);
        L.llcNs += live.nsPerAccess * stream.accesses.size();
        L.llcN += static_cast<double>(stream.accesses.size());
        L.lruNs += replayLlc(stream, lru, h, cores).nsPerAccess *
                   stream.accesses.size();
        if (c.mpppb) {
            const auto pr = replayPredictor(stream, *c.mpppb, h, cores);
            ok = ok && pr.trainingEvents == rec.trainingEvents;
            L.coreNs += pr.nsPerCall * pr.calls;
            L.coreN += static_cast<double>(pr.calls);
            L.train += static_cast<double>(rec.trainingEvents);
        }
        for (auto* src : c.sources) {
            const auto hr = replayHierarchy(*src, c.factory, h);
            // A mix interleaves its cores' LLC traffic, so only a
            // single-core hierarchy replay reproduces the live stream.
            if (!multi)
                ok = ok && sameCounts(hr.llc, stream);
            ok = ok && hr.prefetchReplayMatches;
            L.hierNs += hr.nsPerAccess * hr.accesses;
            L.hierN += static_cast<double>(hr.accesses);
            L.hierInsts += static_cast<double>(src->instructions());
            L.l1A += hr.l1Accesses;
            L.l1M += hr.l1Misses;
            L.l2A += hr.l2Accesses;
            L.l2M += hr.l2Misses;
            L.pfNs += hr.prefetchNsPerMiss * hr.l1Misses;
            L.pfIssued += hr.prefetchIssued;
            L.pfUseful += hr.prefetchUseful;
        }
        if (!ok)
            rep.fail(c.label + ": a layer replay disagrees with the live run");
    }
    return L;
}

std::string
base(double n)
{
    return "of " + std::to_string(static_cast<std::uint64_t>(n));
}

/** Time draining a v3 file through buffered FileTraceSource. */
double
decodeNsPerRec(const std::vector<std::string>& files)
{
    double ns = 0.0, recs = 0.0;
    for (const auto& f : files) {
        trace::FileTraceSource src(f, trace::FileMode::Buffered);
        const auto t0 = Clock::now();
        for (auto chunk = src.nextChunk(); !chunk.empty();
             chunk = src.nextChunk())
            recs += static_cast<double>(chunk.size());
        ns += 1e9 * secondsSince(t0);
    }
    return div0(ns, recs);
}

/** A timed study and what its executor saw. */
struct StudyRun
{
    sweep::StudyResult result;
    sweep::SearchSpace space;
    double wallS = 0.0;
    ExecStats exec;
};

struct StudyShape
{
    std::vector<trace::TraceSpec> corpus;
    InstCount insts = 0;
    cache::HierarchyConfig hierarchy;
    unsigned slots = 16;
    bool genetic = true;
    unsigned generations = 2;
    unsigned population = 2;
    std::uint64_t seed = 0;
};

StudyRun
runStudy(const StudyShape& s, bool hook_timing)
{
    StudyRun out;
    out.space.featureSlots = s.slots;
    out.space.searchThresholds = true;
    sweep::CorpusConfig cc;
    cc.corpus = s.corpus;
    cc.fullInstructions = s.insts;
    cc.sim.hierarchy = s.hierarchy;
    cc.jobs = kSweepJobs;
    sweep::CorpusMpkiObjective objective(
        std::make_shared<sweep::CorpusEvaluator>(cc));
    std::unique_ptr<sweep::Strategy> strategy;
    if (s.genetic) {
        sweep::GeneticStrategy::Config gc;
        gc.generations = s.generations;
        gc.population = s.population;
        strategy = std::make_unique<sweep::GeneticStrategy>(out.space, gc,
                                                            s.seed);
    } else {
        strategy = std::make_unique<sweep::RandomStrategy>(
            out.space, s.generations, s.population, s.seed);
    }
    const TimedExecutor exec(kSweepJobs, hook_timing);
    sweep::StudyConfig sc;
    sc.name = "perfbench";
    sc.seed = s.seed;
    sc.executor = &exec;
    sweep::Study study(out.space, *strategy, objective, sc);
    const auto t0 = Clock::now();
    out.result = study.run();
    out.wallS = secondsSince(t0);
    out.exec = exec.stats();
    return out;
}

/** Runner and sweep layer metrics over a set of studies. */
void
addStudyMetrics(RunReport& rep, const std::vector<StudyRun>& studies)
{
    double run_s = 0, batch_s = 0, over_s = 0, gens = 0, cached = 0,
           cands = 0;
    for (const auto& s : studies) {
        run_s += s.exec.runS;
        batch_s += s.exec.batchS;
        over_s += s.wallS - s.exec.batchS;
        gens += static_cast<double>(s.result.generations.size());
        for (const auto& c : s.result.candidates)
            cached += c.cached ? 1.0 : 0.0;
        cands += static_cast<double>(s.result.candidates.size());
    }
    rep.layer("runner.busy_share", div0(run_s, kSweepJobs * batch_s), "ratio",
            std::to_string(kSweepJobs) + " jobs");
    rep.layer("sweep.overhead_ms_per_gen", 1e3 * div0(over_s, gens), "ms",
            base(gens) + " generations");
    rep.layer("sweep.cache_hit_ratio", div0(cached, cands), "ratio",
            base(cands) + " candidates");
}

void
addLayerMetrics(RunReport& rep, const Inputs& in, const Phase& p,
                const LayerSums& L, double decode_ns, double write_ns)
{
    const double sim_ns = 1e9 * div0(sum(p.roundS), sum(p.roundInsts));
    rep.layer("trace.gen_ns_per_inst", 1e9 * div0(in.genS, in.genInsts),
            "ns", base(in.genInsts) + " insts");
    rep.layer("trace.write_ns_per_rec", write_ns, "ns");
    rep.layer("trace.decode_ns_per_rec", decode_ns, "ns");
    rep.layer("sim.ns_per_inst", sim_ns, "ns");
    rep.layer("cpu.self_ns_per_inst",
            1e9 * div0(p.keySimS, p.keyInsts) - div0(L.hierNs, L.hierInsts),
            "ns", "workload-policy cells minus hierarchy replay");
    rep.layer("cache.hier_ns_per_access", div0(L.hierNs, L.hierN), "ns",
            base(L.hierN) + " accesses");
    rep.layer("cache.l1_miss_ratio", div0(L.l1M, L.l1A), "ratio",
            base(L.l1A) + " L1 demand accesses");
    rep.layer("cache.l2_miss_ratio", div0(L.l2M, L.l2A), "ratio",
            base(L.l2A) + " L2 demand accesses");
    rep.layer("llc.ns_per_access", div0(L.llcNs, L.llcN), "ns",
            base(L.llcN) + " replayed accesses");
    rep.layer("llc.lru_ns_per_access", div0(L.lruNs, L.llcN), "ns");
    rep.layer("llc.accesses_per_kinst", 1e3 * div0(L.accesses, L.insts),
            "count", base(L.insts) + " insts");
    rep.layer("llc.hit_ratio", div0(L.hits, L.hits + L.misses), "ratio",
            base(L.hits + L.misses) + " accesses");
    rep.layer("llc.bypass_ratio", div0(L.bypasses, L.misses), "ratio",
            base(L.misses) + " misses");
    rep.layer("policy.ns_per_call",
            std::max(0.0, div0(p.timing.hookNs, static_cast<double>(
                                                    p.timing.hookCalls)) -
                              clockPairNs()),
            "ns", base(static_cast<double>(p.timing.hookCalls)) +
                      " hook calls, clock cost subtracted");
    rep.layer("core.observe_ns_per_call", div0(L.coreNs, L.coreN), "ns",
            base(L.coreN) + " calls");
    rep.layer("core.train_events_per_kaccess", 1e3 * div0(L.train, L.accesses),
            "count");
    rep.layer("prefetch.ns_per_l1_miss", div0(L.pfNs, L.l1M), "ns",
            base(L.l1M) + " L1 misses");
    rep.layer("prefetch.issued_per_l1_miss", div0(L.pfIssued, L.l1M), "ratio");
    rep.layer("prefetch.accuracy", div0(L.pfUseful, L.pfIssued), "ratio",
            base(L.pfIssued) + " issued");
}

/** Speedup pairs: each non-reference cell against the LRU cell on the
 * same sources. */
double
speedupOverLru(const Inputs& in, const std::map<std::string, Outcome>& r)
{
    std::vector<double> x;
    for (const auto& c : in.cells) {
        if (c.reference)
            continue;
        for (const auto& ref : in.cells)
            if (ref.reference && ref.sources == c.sources &&
                r.count(c.label) && r.count(ref.label))
                x.push_back(div0(r.at(c.label).perf, r.at(ref.label).perf));
    }
    return geomean(x);
}

/**
 * At the default seed, every result label's counters must equal the
 * pinned ones; any other seed is held out and skips this check only.
 */
void
checkExpected(const Options& opt, const CounterTable& counters,
              RunReport& rep)
{
    const std::string path = opt.expectedDir + "/" + opt.workload + ".json";
    if (opt.seed != kDefaultSeed) {
        rep.notes.push_back("expected-results check: SKIPPED, seed " +
                            std::to_string(opt.seed) +
                            " is held out (results are pinned for seed " +
                            std::to_string(kDefaultSeed) + ")");
        return;
    }
    if (opt.writeExpected) {
        std::ofstream out(path);
        out << "{\"seed\": " << kDefaultSeed << ", \"counters\": {";
        const char* sep = "\n  ";
        for (const auto& [label, values] : counters) {
            out << sep << '"' << label << "\": [";
            for (std::size_t i = 0; i < values.size(); ++i)
                out << (i ? ", " : "") << values[i];
            out << ']';
            sep = ",\n  ";
        }
        out << "\n}}\n";
        fatalIf(!out, ErrorCode::Io, "cannot write " + path);
        rep.notes.push_back("expected-results: wrote " + path);
        return;
    }
    std::ifstream in(path);
    if (!in) {
        rep.fail("expected-results file missing: " + path);
        return;
    }
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const json::Value doc = json::parseJson(text, path);
    const json::Value* table = doc.get("counters");
    const std::uint64_t before = rep.failed;
    for (const auto& [label, values] : counters) {
        const json::Value* e = table ? table->get(label) : nullptr;
        bool same = e && e->isArray() && e->array.size() == values.size();
        for (std::size_t i = 0; same && i < values.size(); ++i)
            same = e->array[i].asU64() == values[i];
        if (!same)
            rep.fail("counters differ from the expected results: " + label);
    }
    rep.notes.push_back(std::string("expected-results check: ") +
                        (rep.failed == before ? "passed" : "FAILED") +
                        " against " + path);
}

RunReport
runCellWorkload(const Options& opt, CounterTable& counters,
                Inputs (*setup)(const Options&, const Config&),
                const Config& cfg)
{
    RunReport rep;
    std::vector<double> setups;
    HostProbe setup_probe;
    Inputs in;
    for (int i = 0; i < kSetups; ++i) {
        setup_probe.sample();
        const auto t0 = Clock::now();
        in = setup(opt, cfg);
        setups.push_back(secondsSince(t0) * setup_probe.lastScale());
    }
    std::map<std::string, Outcome> first;
    const Phase p = runCells(opt, cfg, in, rep, first);

    std::vector<double> mpkis;
    for (const auto& c : in.cells)
        if (!c.reference && first.count(c.label))
            mpkis.push_back(first.at(c.label).mpki);
    for (const auto& [label, o] : first)
        counters[label] = o.counters;

    checkExpected(opt, counters, rep);

    if (opt.trace) {
        const LayerSums L = replayCells(cfg, in, rep, &first);
        Inputs probe_files;
        double write_ns = div0(1e9 * in.writeS, in.writeRecs);
        std::vector<std::string> files = in.files;
        if (files.empty() && !in.traces.empty()) {
            const std::string path = opt.workDir + "/decode_probe.trace";
            writeTrace(probe_files, *in.traces.front(), path);
            write_ns = div0(1e9 * probe_files.writeS, probe_files.writeRecs);
            files.push_back(path);
        }
        const double decode_ns = decodeNsPerRec(files);
        StudyShape shape;
        shape.corpus = in.specs;
        shape.insts = in.specs.front().instructions();
        shape.hierarchy = cfg.single.hierarchy;
        shape.genetic = false;
        shape.seed = opt.seed;
        const StudyRun probe = runStudy(shape, false);
        rep.attempted += probe.exec.runs;
        addLayerMetrics(rep, in, p, L, decode_ns, write_ns);
        addStudyMetrics(rep, {probe});
        scaleLayerTimes(rep, p.host);
        addInstrumentMetrics(rep, p);
    }
    addEndToEnd(rep, p, median(setups),
                geomean(mpkis, sweep::kGeomeanMpkiFloor),
                speedupOverLru(in, first));
    if (!opt.trace)
        addInstrumentMetrics(rep, p);
    return rep;
}

// --- sweep_ga ---------------------------------------------------------

RunReport
runSweepGa(const Options& opt, CounterTable& counters)
{
    static const std::vector<std::string> corpus_names = {
        "drift.slow", "gups.fit", "stream.light"};
    constexpr InstCount kInsts = 200000;
    Config cfg;
    cfg.single.hierarchy.llcBytes = 128 * 1024;

    RunReport rep;
    std::vector<double> setups;
    HostProbe setup_probe;
    Inputs in;
    std::vector<double> lru_ipc;
    for (int i = 0; i < kSetups; ++i) {
        setup_probe.sample();
        const auto t0 = Clock::now();
        in = Inputs{};
        lru_ipc.clear();
        for (const auto& name : corpus_names) {
            const auto& t = generate(in, name, kInsts, opt.seed);
            trace::MaterializedTraceSource src(t);
            lru_ipc.push_back(sim::runSingleCore(
                                  src, sim::PolicyRegistry::make("LRU"),
                                  cfg.single)
                                  .ipc);
        }
        setups.push_back(secondsSince(t0) * setup_probe.lastScale());
    }

    StudyShape shape;
    shape.corpus = in.specs;
    shape.insts = kInsts;
    shape.hierarchy = cfg.single.hierarchy;
    shape.slots = 4;
    shape.genetic = true;
    shape.generations = 3;
    shape.population = 8;
    shape.seed = opt.seed;

    Phase p;
    std::vector<StudyRun> studies;
    const auto start = Clock::now();
    for (unsigned round = 0;
         round < 4 || secondsSince(start) < opt.seconds; ++round) {
        const bool traced = opt.trace && round % 2 == 1;
        p.host.maybeSample(0.25);
        const TrialMeter meter;
        StudyRun s;
        try {
            s = runStudy(shape, traced);
        } catch (const std::exception& e) {
            rep.fail(std::string("study: ") + e.what());
            continue;
        }
        const TrialSample t = meter.stop();
        rep.attempted += s.exec.runs;
        for (const auto& c : s.result.candidates)
            if (!c.ok)
                rep.fail("candidate failed: " + c.error);
        if (!studies.empty()) {
            const auto& a = studies.front().result.candidates;
            const auto& b = s.result.candidates;
            std::uint64_t differ = a.size() == b.size() ? 0 : b.size();
            for (std::size_t i = 0; i < a.size() && i < b.size(); ++i)
                if (a[i].llcDemandAccesses != b[i].llcDemandAccesses ||
                    a[i].llcDemandMisses != b[i].llcDemandMisses ||
                    a[i].instructions != b[i].instructions ||
                    a[i].cached != b[i].cached)
                    ++differ;
            if (differ != 0)
                rep.fail("study results differ between trials", differ);
        }
        p.timing.hookNs += s.exec.hookNs;
        p.timing.hookCalls += s.exec.hookCalls;
        recordTrial(p, traced, t, static_cast<double>(s.exec.insts),
                    div0(s.exec.runS, t.wallS));
        if (!traced) {
            UnitSamples& u = p.units["study"];
            u.seconds.push_back(t.wallS * p.host.lastScale());
            u.insts = static_cast<double>(s.exec.insts);
            u.sims = static_cast<double>(s.exec.runs);
            for (const auto& [trace, ms] : s.exec.runMs)
                for (const double x : ms)
                    p.simMs[trace].push_back(x * p.host.lastScale());
            p.keySimS += s.exec.runS;
            p.keyInsts += static_cast<double>(s.exec.insts);
        }
        studies.push_back(std::move(s));
    }
    fatalIf(studies.empty() || !studies.front().result.hasBest,
            "sweep_ga produced no successful study");

    const StudyRun& s0 = studies.front();
    const auto& best = s0.result.candidates[s0.result.bestId];
    for (const auto& c : s0.result.candidates)
        counters["cand" + std::to_string(c.id)] = {
            c.llcDemandAccesses, c.llcDemandMisses, c.instructions,
            c.cached ? 1u : 0u};
    counters["best"] = {s0.result.bestId};

    // The winner against LRU on the same corpus, and the cells whose
    // layers the traced run replays.
    const core::MpppbConfig best_cfg = s0.space.decode(best.candidate.genome);
    std::vector<double> speedups;
    for (std::size_t i = 0; i < in.traces.size(); ++i) {
        CountingSource* src = memorySource(in, *in.traces[i]);
        in.cells.push_back({in.traces[i]->name() + "/best",
                            sim::makeMpppbFactory(best_cfg), best_cfg,
                            {src}, false, false});
        ++rep.attempted;
        try {
            const auto o = simulate(in.cells.back(), in.cells.back().factory,
                                    cfg, in);
            speedups.push_back(div0(o.perf, lru_ipc[i]));
        } catch (const std::exception& e) {
            rep.fail(in.cells.back().label + ": " + e.what());
        }
    }

    checkExpected(opt, counters, rep);

    if (opt.trace) {
        const LayerSums L = replayCells(cfg, in, rep, nullptr);
        Inputs probe_files;
        const std::string path = opt.workDir + "/decode_probe.trace";
        writeTrace(probe_files, *in.traces.front(), path);
        addLayerMetrics(rep, in, p, L, decodeNsPerRec({path}),
                        div0(1e9 * probe_files.writeS, probe_files.writeRecs));
        addStudyMetrics(rep, studies);
        scaleLayerTimes(rep, p.host);
        addInstrumentMetrics(rep, p);
    }
    addEndToEnd(rep, p, median(setups), best.mpki, geomean(speedups));
    if (!opt.trace)
        addInstrumentMetrics(rep, p);
    return rep;
}

} // namespace

const std::vector<std::string>&
workloadNames()
{
    static const std::vector<std::string> names = {"st_llc", "st_l1",
                                                   "mc_mix", "sweep_ga"};
    return names;
}

RunReport
runWorkload(const Options& opt, CounterTable& counters)
{
    Config cfg;
    // Half the paper-scaled windows: twice the simulations per second
    // of measurement, so the tail percentile has samples beyond it.
    cfg.multi.warmupInstructions = 800000;
    cfg.multi.measureCycles = 250000;
    if (opt.workload == "st_llc")
        return runCellWorkload(opt, counters, setupStLlc, cfg);
    if (opt.workload == "st_l1")
        return runCellWorkload(opt, counters, setupStL1, cfg);
    if (opt.workload == "mc_mix")
        return runCellWorkload(opt, counters, setupMcMix, cfg);
    if (opt.workload == "sweep_ga")
        return runSweepGa(opt, counters);
    fatal(ErrorCode::Config, "unknown workload " + opt.workload);
}

} // namespace perfbench
