#include "core/predictor.hpp"

#include <algorithm>

#include "prof/profiler.hpp"
#include "util/logging.hpp"

namespace mrp::core {

MultiperspectivePredictor::MultiperspectivePredictor(
    const cache::CacheGeometry& llc_geom, unsigned cores,
    const MultiperspectiveConfig& cfg)
    : cfg_(cfg), plan_(cfg.features),
      weightMin_(-(1 << (cfg.weightBits - 1))),
      weightMax_((1 << (cfg.weightBits - 1)) - 1),
      sampling_(llc_geom.sets(),
                std::min(cfg.sampledSetsPerCore * cores,
                         llc_geom.sets())),
      sampler_(static_cast<std::size_t>(sampling_.sampledSets()) *
               cfg.samplerAssoc),
      samplerCount_(sampling_.sampledSets(), 0),
      deadAt_(cfg.samplerAssoc + 1), weights_(plan_.arenaSize(), 0),
      lastMiss_(llc_geom.sets(), 0), lastBlock_(llc_geom.sets(), ~Addr{0})
{
    fatalIf(cfg.features.empty(), "predictor needs at least one feature");
    fatalIf(cfg.samplerAssoc == 0 ||
                cfg.samplerAssoc > kMaxFeatureAssoc,
            "sampler associativity out of range");
    for (std::size_t f = 0; f < cfg.features.size(); ++f) {
        const FeatureSpec& spec = cfg.features[f];
        fatalIf(spec.assoc > cfg.samplerAssoc,
                "feature associativity exceeds the sampler's: " +
                    spec.toString());
        deadAt_[spec.assoc].push_back(static_cast<std::uint8_t>(f));
    }
}

std::size_t
MultiperspectivePredictor::totalWeights() const
{
    return weights_.size();
}

double
MultiperspectivePredictor::meanAbsWeight(std::size_t feature) const
{
    const auto first = weights_.begin() + plan_.base(feature);
    const std::uint32_t n = plan_.tableSize(feature);
    std::uint64_t sum = 0;
    for (auto w = first; w != first + n; ++w)
        sum += static_cast<std::uint64_t>(*w < 0 ? -*w : *w);
    return static_cast<double>(sum) / static_cast<double>(n);
}

std::uint32_t
MultiperspectivePredictor::maxSamplerOccupancy() const
{
    std::uint8_t most = 0;
    for (const std::uint8_t n : samplerCount_)
        most = std::max(most, n);
    return most;
}

namespace {

/** Sorted, deduplicated histogram bounds spanning [lo, hi]. */
std::vector<std::int64_t>
symmetricBounds(int lo, int hi)
{
    std::vector<std::int64_t> b;
    for (const int v : {lo, lo / 2, lo / 4, lo / 8, -1, 0, hi / 8,
                        hi / 4, hi / 2, hi})
        b.push_back(v);
    std::sort(b.begin(), b.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    return b;
}

/** Two-digit feature tag for stable metric-name sorting. */
std::string
featureTag(std::size_t f)
{
    std::string tag = f < 10 ? "0" : "";
    tag += std::to_string(f);
    return tag;
}

} // namespace

void
MultiperspectivePredictor::attachTelemetry(
    telemetry::MetricsRegistry& registry)
{
    tel_ = std::make_unique<Telemetry>();
    const auto weight_bounds = symmetricBounds(weightMin_, weightMax_);
    for (std::size_t f = 0; f < cfg_.features.size(); ++f) {
        const std::string base = "predictor.feature." + featureTag(f);
        tel_->featureWeight.push_back(
            &registry.histogram(base + ".weight", weight_bounds));
        registry.gaugeFn(base + ".mean_abs_weight",
                         [this, f] { return meanAbsWeight(f); });
    }
    const auto conf_bounds =
        symmetricBounds(minConfidence(), maxConfidence());
    tel_->confidenceHit =
        &registry.histogram("predictor.confidence.hit", conf_bounds);
    tel_->confidenceMiss =
        &registry.histogram("predictor.confidence.miss", conf_bounds);
    registry.gaugeFn("predictor.training_events", [this] {
        return static_cast<double>(trainingEvents_);
    });
}

int
MultiperspectivePredictor::sumOf(const IndexVec& idx) const
{
    int sum = 0;
    for (std::size_t f = 0; f < plan_.size(); ++f)
        sum += weights_[plan_.base(f) + idx[f]];
    return std::clamp(sum, -cfg_.confidenceClamp - 1,
                      cfg_.confidenceClamp);
}

void
MultiperspectivePredictor::trainDead(const SamplerEntry* entries,
                                     std::size_t demoted)
{
    // Positions 0..demoted-1 each move down one; a block arriving
    // exactly at a feature's A is dead for that feature.
    for (std::size_t q = 0; q < demoted; ++q) {
        const SamplerEntry& e = entries[q];
        if (e.confidence >= cfg_.trainingThreshold)
            continue;
        for (const std::uint8_t f : deadAt_[q + 1]) {
            std::int8_t& w = weight(f, e.indices[f]);
            if (w < weightMax_)
                ++w;
        }
    }
}

void
MultiperspectivePredictor::samplerAccess(const cache::AccessInfo& info,
                                         std::uint32_t set,
                                         const IndexVec& idx,
                                         int confidence)
{
    MRP_PROF_SCOPE_HOT("llc.sampler");
    // Each sampler set is a true-LRU stack of samplerAssoc entries.
    // Keeping only the top samplerAssoc of an unbounded stack loses no
    // training: a reuse deeper than samplerAssoc trains "live" in no
    // table (every A <= samplerAssoc) and its demotions reach no A
    // beyond samplerAssoc, so it trains exactly like the placement of
    // a block the bounded stack has forgotten.
    const std::uint32_t s = sampling_.samplerSetOf(set);
    const std::size_t assoc = cfg_.samplerAssoc;
    SamplerEntry* sset = &sampler_[static_cast<std::size_t>(s) * assoc];
    std::uint8_t& count = samplerCount_[s];
    const std::uint16_t tag = policy::SetSampling::partialTag(info.addr);

    std::size_t pos = count;
    for (std::size_t i = 0; i < count; ++i) {
        if (sset[i].tag == tag) {
            pos = i;
            break;
        }
    }

    if (pos < count) {
        // ---- Reuse at LRU position pos. ----
        {
            MRP_PROF_SCOPE_HOT("llc.train");
            // Train "live" only in tables whose associativity would
            // still have held the block (p < A); gate on the stored
            // prediction per the perceptron rule. Live training goes
            // first: saturating bumps to one weight do not commute.
            const SamplerEntry& entry = sset[pos];
            if (entry.confidence > -cfg_.trainingThreshold) {
                for (std::size_t f = 0; f < plan_.size(); ++f) {
                    if (pos >= cfg_.features[f].assoc)
                        continue;
                    std::int8_t& w = weight(f, entry.indices[f]);
                    if (w > weightMin_)
                        --w;
                }
            }
            ++trainingEvents_;
            trainDead(sset, pos);
        }
        // Move the entry to MRU; its fields are refreshed below.
        std::move_backward(sset, sset + pos, sset + pos + 1);
    } else {
        // ---- Placement: everyone shifts down one position. ----
        {
            MRP_PROF_SCOPE_HOT("llc.train");
            trainDead(sset, count);
            ++trainingEvents_;
        }
        // A full set drops its LRU entry.
        const std::size_t kept = std::min<std::size_t>(count, assoc - 1);
        std::move_backward(sset, sset + kept, sset + kept + 1);
        count = static_cast<std::uint8_t>(kept + 1);
    }
    sset[0].tag = tag;
    sset[0].confidence = static_cast<std::int16_t>(confidence);
    sset[0].indices = idx;
}

int
MultiperspectivePredictor::observe(const cache::AccessInfo& info,
                                   std::uint32_t set, bool hit)
{
    if (info.type == cache::AccessType::Writeback)
        return 0;

    const Addr blk = blockAddr(info.addr);
    FeatureInput in;
    in.pc = info.pc;
    in.addr = info.addr;
    in.ctx = info.ctx;
    in.isInsert = !hit;
    in.lastMiss = lastMiss_[set] != 0;
    in.isBurst = lastBlock_[set] == blk;

    IndexVec idx{};
    plan_.indices(in, idx.data());
    const int confidence = sumOf(idx);

    if (tel_) {
        for (std::size_t f = 0; f < plan_.size(); ++f)
            tel_->featureWeight[f]->record(weight(f, idx[f]));
        (hit ? tel_->confidenceHit : tel_->confidenceMiss)
            ->record(confidence);
    }

    if (sampling_.sampled(set))
        samplerAccess(info, set, idx, confidence);

    lastMiss_[set] = hit ? 0 : 1;
    lastBlock_[set] = blk;
    return confidence;
}

} // namespace mrp::core
