#include "sweep/search_space.hpp"

#include <algorithm>

#include "cache/access.hpp"
#include "util/json_fields.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::sweep {

namespace {

// Per-slot gene offsets.
enum : std::size_t {
    kEnabled = 0,
    kKind = 1,
    kAssoc = 2,
    kBegin = 3,
    kEnd = 4,
    kDepth = 5,
    kXorPc = 6,
};

constexpr int kKindCount = 7; //!< FeatureKind has seven values
constexpr int kTauMin = -256; //!< 9-bit confidence range (§3.3)
constexpr int kTauMax = 255;

int
depthMax()
{
    return static_cast<int>(cache::CoreContext::kPcHistoryDepth) - 1;
}

const char*
substrateName(core::Substrate s)
{
    return s == core::Substrate::Mdpp ? "mdpp" : "srrip";
}

} // namespace

std::vector<GeneSpec>
SearchSpace::genes() const
{
    std::vector<GeneSpec> out;
    out.reserve(genomeSize());
    for (unsigned s = 0; s < featureSlots; ++s) {
        std::string p = "f";
        p += std::to_string(s) + ".";
        out.push_back({p + "enabled", 0, 1});
        out.push_back({p + "kind", 0, kKindCount - 1});
        out.push_back({p + "assoc", 1,
                       static_cast<int>(core::kMaxFeatureAssoc)});
        out.push_back({p + "begin", 0, 63});
        out.push_back({p + "end", 0, 63});
        out.push_back({p + "depth", 0, depthMax()});
        out.push_back({p + "xorpc", 0, 1});
    }
    if (searchThresholds) {
        out.push_back({"tau.bypass", kTauMin, kTauMax});
        out.push_back({"tau.1", kTauMin, kTauMax});
        out.push_back({"tau.2", kTauMin, kTauMax});
        out.push_back({"tau.3", kTauMin, kTauMax});
        out.push_back({"tau.nopromote", kTauMin, kTauMax});
    }
    if (searchSampler) {
        fatalIf(samplerSets.empty(), "searchSampler with no sampler "
                                     "set choices");
        out.push_back({"sampler", 0,
                       static_cast<int>(samplerSets.size()) - 1});
    }
    return out;
}

std::size_t
SearchSpace::genomeSize() const
{
    return featureSlots * kGenesPerSlot +
           (searchThresholds ? 5u : 0u) + (searchSampler ? 1u : 0u);
}

Genome
SearchSpace::clamp(Genome g) const
{
    fatalIf(g.size() != genomeSize(),
            "genome size mismatch: got " + std::to_string(g.size()) +
                ", space has " + std::to_string(genomeSize()));
    const auto specs = genes();
    for (std::size_t i = 0; i < g.size(); ++i)
        g[i] = std::clamp(g[i], specs[i].min, specs[i].max);

    bool any_enabled = false;
    for (unsigned s = 0; s < featureSlots; ++s) {
        int* slot = g.data() + s * kGenesPerSlot;
        if (!slot[kEnabled]) {
            // Disabled slots are fully canonical (all genes at their
            // minimum) so genomes differing only in dormant genes are
            // the same candidate.
            slot[kKind] = 0;
            slot[kAssoc] = 1;
            slot[kBegin] = slot[kEnd] = slot[kDepth] = 0;
            slot[kXorPc] = 0;
            continue;
        }
        any_enabled = true;
        if (slot[kEnd] < slot[kBegin])
            std::swap(slot[kBegin], slot[kEnd]);
        // Zero the parameters the kind ignores, for the same
        // canonicality reason.
        const auto kind = static_cast<core::FeatureKind>(slot[kKind]);
        switch (kind) {
          case core::FeatureKind::Pc:
            break;
          case core::FeatureKind::Address:
            slot[kDepth] = 0;
            break;
          case core::FeatureKind::Offset:
            // In-block byte offset: 6 value bits; FeatureSpec caps the
            // selected width at 6, so positions past bit 7 are dead.
            slot[kDepth] = 0;
            slot[kBegin] = std::min(slot[kBegin], 7);
            slot[kEnd] = std::min(slot[kEnd], 7);
            break;
          default: // bias / burst / insert / lastmiss: value-less
            slot[kBegin] = slot[kEnd] = slot[kDepth] = 0;
            break;
        }
    }
    if (!any_enabled)
        g[kEnabled] = 1; // slot 0, canonical pc(1,0,0,0,0)

    if (searchThresholds) {
        // τ1 >= τ2 >= τ3 (the placement ladder of §3.6).
        int* tau = g.data() + featureSlots * kGenesPerSlot + 1;
        std::sort(tau, tau + 3, std::greater<int>());
    }
    return g;
}

Genome
SearchSpace::encodeClamped(const core::MpppbConfig& cfg) const
{
    const auto& feats = cfg.predictor.features;
    fatalIf(feats.empty(), "encode: configuration has no features");
    fatalIf(feats.size() > featureSlots,
            "encode: " + std::to_string(feats.size()) +
                " features exceed " + std::to_string(featureSlots) +
                " slots");
    Genome g(genomeSize(), 0);
    for (std::size_t s = 0; s < feats.size(); ++s) {
        int* slot = g.data() + s * kGenesPerSlot;
        slot[kEnabled] = 1;
        slot[kKind] = static_cast<int>(feats[s].kind);
        slot[kAssoc] = static_cast<int>(feats[s].assoc);
        slot[kBegin] = static_cast<int>(feats[s].begin);
        slot[kEnd] = static_cast<int>(feats[s].end);
        slot[kDepth] = static_cast<int>(feats[s].depth);
        slot[kXorPc] = feats[s].xorPc ? 1 : 0;
    }
    std::size_t pos = featureSlots * kGenesPerSlot;
    if (searchThresholds) {
        g[pos++] = cfg.thresholds.tauBypass;
        g[pos++] = cfg.thresholds.tau[0];
        g[pos++] = cfg.thresholds.tau[1];
        g[pos++] = cfg.thresholds.tau[2];
        g[pos++] = cfg.thresholds.tauNoPromote;
    }
    if (searchSampler) {
        const auto it =
            std::find(samplerSets.begin(), samplerSets.end(),
                      cfg.predictor.sampledSetsPerCore);
        fatalIf(it == samplerSets.end(),
                "encode: sampledSetsPerCore " +
                    std::to_string(cfg.predictor.sampledSetsPerCore) +
                    " not among the space's sampler choices");
        g[pos++] = static_cast<int>(it - samplerSets.begin());
    }
    return clamp(g);
}

Genome
SearchSpace::encode(const core::MpppbConfig& cfg) const
{
    const auto& feats = cfg.predictor.features;
    const Genome g = encodeClamped(cfg);

    // Validated encode: the canonical genome must decode back to the
    // exact configuration, or the configuration lies outside the space
    // (e.g. a parameter beyond a gene's bounds).
    const auto back = decode(g);
    fatalIf(back.predictor.features != feats,
            "encode: feature set not representable in this space");
    if (searchThresholds) {
        const bool same =
            back.thresholds.tauBypass == cfg.thresholds.tauBypass &&
            back.thresholds.tau == cfg.thresholds.tau &&
            back.thresholds.tauNoPromote ==
                cfg.thresholds.tauNoPromote;
        fatalIf(!same,
                "encode: thresholds not representable in this space");
    }
    return g;
}

core::MpppbConfig
SearchSpace::decode(const Genome& g) const
{
    fatalIf(g.size() != genomeSize(), "decode: genome size mismatch");
    core::MpppbConfig cfg = base;
    cfg.predictor.features.clear();
    for (unsigned s = 0; s < featureSlots; ++s) {
        const int* slot = g.data() + s * kGenesPerSlot;
        if (!slot[kEnabled])
            continue;
        core::FeatureSpec f;
        f.kind = static_cast<core::FeatureKind>(slot[kKind]);
        f.assoc = static_cast<unsigned>(slot[kAssoc]);
        f.begin = static_cast<unsigned>(slot[kBegin]);
        f.end = static_cast<unsigned>(slot[kEnd]);
        f.depth = static_cast<unsigned>(slot[kDepth]);
        f.xorPc = slot[kXorPc] != 0;
        cfg.predictor.features.push_back(f);
    }
    fatalIf(cfg.predictor.features.empty(),
            "decode: genome enables no features (not canonical)");
    std::size_t pos = featureSlots * kGenesPerSlot;
    if (searchThresholds) {
        cfg.thresholds.tauBypass = g[pos++];
        cfg.thresholds.tau[0] = g[pos++];
        cfg.thresholds.tau[1] = g[pos++];
        cfg.thresholds.tau[2] = g[pos++];
        cfg.thresholds.tauNoPromote = g[pos++];
    }
    if (searchSampler)
        cfg.predictor.sampledSetsPerCore =
            samplerSets[static_cast<std::size_t>(g[pos++])];
    return cfg;
}

Genome
SearchSpace::randomGenome(Rng& rng) const
{
    const auto specs = genes();
    Genome g(specs.size(), 0);
    for (std::size_t i = 0; i < specs.size(); ++i)
        g[i] = static_cast<int>(specs[i].min +
                                static_cast<int>(rng.below(
                                    static_cast<std::uint64_t>(
                                        specs[i].max - specs[i].min +
                                        1))));
    return clamp(std::move(g));
}

std::uint64_t
SearchSpace::predictorBits(const Genome& g) const
{
    const auto cfg = decode(g);
    std::uint64_t bits = 0;
    for (const auto& f : cfg.predictor.features)
        bits += static_cast<std::uint64_t>(f.tableSize()) *
                cfg.predictor.weightBits;
    return bits;
}

std::string
SearchSpace::genomeKey(const Genome& g) const
{
    fatalIf(g.size() != genomeSize(),
            "genomeKey: genome size mismatch");
    std::string out;
    for (std::size_t i = 0; i < g.size(); ++i) {
        if (i)
            out += ',';
        out += std::to_string(g[i]);
    }
    return out;
}

std::string
SearchSpace::genomeJson(const Genome& g) const
{
    return json::valueJson(g);
}

Genome
SearchSpace::genomeFromJson(const json::Value& v) const
{
    fatalIf(!v.isArray(), ErrorCode::CorruptInput,
            "genome: expected a JSON array");
    fatalIf(v.array.size() != genomeSize(), ErrorCode::CorruptInput,
            "genome: array has " + std::to_string(v.array.size()) +
                " genes, space has " + std::to_string(genomeSize()));
    Genome g;
    g.reserve(v.array.size());
    for (const auto& e : v.array)
        g.push_back(e.asInteger<int>("genome gene"));
    return clamp(std::move(g));
}

std::string
SearchSpace::spaceJson() const
{
    constexpr std::tuple kFields{
        json::Field{"featureSlots", &SearchSpace::featureSlots},
        json::Field{"searchThresholds", &SearchSpace::searchThresholds},
        json::Field{"searchSampler", &SearchSpace::searchSampler},
        json::Field{"samplerSets", &SearchSpace::samplerSets},
    };
    std::string out = "{";
    out += json::fieldsJson(*this, kFields);
    out += ", " + json::key("substrate") +
           json::str(substrateName(base.substrate));
    out += ", " + json::key("weightBits") +
           std::to_string(base.predictor.weightBits);
    out += ", " + json::key("genomeSize") +
           std::to_string(genomeSize());
    out += "}";
    return out;
}

} // namespace mrp::sweep
