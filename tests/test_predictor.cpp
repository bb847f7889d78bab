/**
 * @file
 * Tests for the multiperspective predictor: configuration validation,
 * learning dead and live PC streams through the sampler, per-feature
 * associativity behaviour, and confidence bounds.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/feature_sets.hpp"
#include "core/predictor.hpp"
#include "policy/sampling.hpp"
#include "util/rng.hpp"

namespace mrp::core {
namespace {

cache::CacheGeometry
geom()
{
    return cache::CacheGeometry(2 * 1024 * 1024, 16);
}

MultiperspectiveConfig
smallConfig(std::vector<FeatureSpec> features)
{
    MultiperspectiveConfig cfg;
    cfg.features = std::move(features);
    return cfg;
}

cache::AccessInfo
access(Pc pc, Addr addr)
{
    cache::AccessInfo info;
    info.pc = pc;
    info.addr = addr;
    info.type = cache::AccessType::Load;
    return info;
}

/** Drive a predictor with a dead stream: every block touched once. */
int
trainDeadStream(MultiperspectivePredictor& pred, Pc pc,
                std::uint32_t set, int rounds)
{
    int conf = 0;
    for (int i = 0; i < rounds; ++i) {
        // Unique block every time: pure dead-on-arrival traffic.
        const Addr a = (static_cast<Addr>(i) * 2048 + set) * 64;
        conf = pred.observe(access(pc, a), set, /*hit=*/false);
    }
    return conf;
}

TEST(PredictorConfigTest, Validation)
{
    MultiperspectiveConfig cfg;
    EXPECT_THROW(MultiperspectivePredictor(geom(), 1, cfg), FatalError);
    cfg.features = featureSetTable1A();
    cfg.samplerAssoc = 0;
    EXPECT_THROW(MultiperspectivePredictor(geom(), 1, cfg), FatalError);
    cfg.samplerAssoc = 12; // smaller than some feature A values
    EXPECT_THROW(MultiperspectivePredictor(geom(), 1, cfg), FatalError);
}

TEST(PredictorConfigTest, TotalWeightsMatchTableSizes)
{
    const auto cfg = smallConfig(featureSetTable1A());
    MultiperspectivePredictor pred(geom(), 1, cfg);
    std::size_t expected = 0;
    for (const auto& f : cfg.features)
        expected += f.tableSize();
    EXPECT_EQ(pred.totalWeights(), expected);
}

TEST(PredictorTest, LearnsADeadPcStream)
{
    auto cfg = smallConfig({FeatureSpec::parse("bias(18,1)")});
    MultiperspectivePredictor pred(geom(), 1, cfg);
    // Set 0 is sampled (sampling picks multiples of sets/sampled).
    const int conf = trainDeadStream(pred, 0x400000, 0, 2000);
    EXPECT_GT(conf, 20); // strongly dead
}

TEST(PredictorTest, LearnsALivePcStream)
{
    auto cfg = smallConfig({FeatureSpec::parse("bias(18,1)")});
    MultiperspectivePredictor pred(geom(), 1, cfg);
    // Two blocks ping-ponged: every access after the first pair is a
    // reuse at LRU position 1 (< A for all features).
    int conf = 0;
    for (int i = 0; i < 2000; ++i)
        conf = pred.observe(access(0x400000, (i % 2) * 2048 * 64), 0,
                            true);
    EXPECT_LT(conf, -20); // strongly live
}

TEST(PredictorTest, SeparatesDeadAndLivePcs)
{
    auto cfg = smallConfig({FeatureSpec::parse("bias(18,1)")});
    MultiperspectivePredictor pred(geom(), 1, cfg);
    const Pc dead_pc = 0x400000;
    const Pc live_pc = 0x500000;
    for (int i = 0; i < 3000; ++i) {
        // Dead PC touches fresh blocks; live PC ping-pongs two blocks.
        pred.observe(
            access(dead_pc, (static_cast<Addr>(i) * 4096 + 1) * 2048 * 64),
            0, false);
        pred.observe(access(live_pc, (i % 2) * 2048 * 64), 0, true);
    }
    const int dead_conf = pred.observe(
        access(dead_pc, 0x123ull * 2048 * 64), 0, false);
    const int live_conf =
        pred.observe(access(live_pc, 0), 0, true);
    EXPECT_GT(dead_conf, live_conf + 20);
}

TEST(PredictorTest, ConfidenceStaysWithinNineBits)
{
    auto cfg = smallConfig(featureSetTable1A());
    MultiperspectivePredictor pred(geom(), 1, cfg);
    Rng rng(1);
    int lo = 0, hi = 0;
    for (int i = 0; i < 20000; ++i) {
        const int c = pred.observe(
            access(0x400000 + 4 * rng.below(4), rng.below(1u << 30)),
            0, rng.chance(0.3));
        lo = std::min(lo, c);
        hi = std::max(hi, c);
    }
    EXPECT_GE(lo, pred.minConfidence());
    EXPECT_LE(hi, pred.maxConfidence());
    EXPECT_EQ(pred.maxConfidence(), 255);
    EXPECT_EQ(pred.minConfidence(), -256);
}

TEST(PredictorTest, NonSampledSetsDoNotTrain)
{
    auto cfg = smallConfig({FeatureSpec::parse("bias(18,1)")});
    MultiperspectivePredictor pred(geom(), 1, cfg);
    // Set 1 is not sampled (2048 sets, 64 sampled => multiples of 32).
    const int before = pred.observe(access(0x400000, 64), 1, false);
    trainDeadStream(pred, 0x400000, 1, 500);
    const int after = pred.observe(access(0x400000, 64), 1, false);
    EXPECT_EQ(pred.trainingEvents(), 0u);
    EXPECT_EQ(before, after);
}

TEST(PredictorTest, WritebacksAreIgnored)
{
    auto cfg = smallConfig({FeatureSpec::parse("bias(18,1)")});
    MultiperspectivePredictor pred(geom(), 1, cfg);
    cache::AccessInfo wb = access(0x400000, 64);
    wb.type = cache::AccessType::Writeback;
    EXPECT_EQ(pred.observe(wb, 0, false), 0);
    EXPECT_EQ(pred.trainingEvents(), 0u);
}

/**
 * Per-feature associativity: with A=1, a reuse at LRU position >= 1
 * must NOT train "live" (the feature's 1-way cache would have missed),
 * while an A=18 feature trains live for any sampler hit.
 */
TEST(PredictorTest, AssociativityGatesLiveTraining)
{
    auto run = [&](const char* feature) {
        auto cfg = smallConfig({FeatureSpec::parse(feature)});
        MultiperspectivePredictor pred(geom(), 1, cfg);
        int conf = 0;
        // Ping-pong two blocks: each hit occurs at LRU position 1.
        for (int i = 0; i < 1000; ++i)
            conf = pred.observe(access(0x400000, (i % 2) * 2048 * 64),
                                0, true);
        return conf;
    };
    EXPECT_LT(run("bias(18,1)"), -20); // live at assoc 18
    // At A=1 the same stream never trains live, and each promotion
    // demotes the other block to exactly position 1 == A => dead.
    EXPECT_GT(run("bias(1,1)"), 20);
}

TEST(PredictorTest, DistinguishesByAddressRegion)
{
    auto cfg = smallConfig({FeatureSpec::parse("address(18,12,25,0)")});
    MultiperspectivePredictor pred(geom(), 1, cfg);
    const Addr live_base = 0x10000000;
    const Addr dead_base = 0x80000000;
    for (int i = 0; i < 3000; ++i) {
        pred.observe(access(0x400000, live_base + (i % 2) * 2048 * 64),
                     0, true);
        pred.observe(
            access(0x400000,
                   dead_base + (static_cast<Addr>(i) + 7) * 2048 * 64),
            0, false);
    }
    // Probe with addresses drawn from the trained populations (the
    // bases themselves alias: both have zero bits in 12..25).
    const int live = pred.observe(
        access(0x400000, live_base + 1 * 2048 * 64), 0, true);
    const int dead = pred.observe(
        access(0x400000, dead_base + 1234ull * 2048 * 64), 0, false);
    EXPECT_GT(dead, live + 20);
}

// ---- The optimized predictor against a naive reference ----

/**
 * The predictor as first written, kept as an oracle: one vector per
 * feature table, featureIndex per feature per access, and sampler
 * sets as MRU-first vectors updated by erase + insert. A placement
 * never removes the invalid tail, so these sets grow without bound —
 * an unbounded LRU stack whose top samplerAssoc entries the optimized
 * predictor keeps.
 */
class ReferencePredictor
{
  public:
    ReferencePredictor(const cache::CacheGeometry& g, unsigned cores,
                       const MultiperspectiveConfig& cfg)
        : cfg_(cfg), sampling_(g.sets(), std::min(cfg.sampledSetsPerCore *
                                                      cores,
                                                  g.sets())),
          sets_(sampling_.sampledSets(),
                std::vector<Entry>(cfg.samplerAssoc)),
          lastMiss_(g.sets(), 0), lastBlock_(g.sets(), ~Addr{0})
    {
        for (const auto& f : cfg.features)
            tables_.emplace_back(f.tableSize(), 0);
    }

    int
    observe(const cache::AccessInfo& info, std::uint32_t set, bool hit)
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
        std::vector<std::uint32_t> idx;
        int sum = 0;
        for (std::size_t f = 0; f < cfg_.features.size(); ++f) {
            idx.push_back(featureIndex(cfg_.features[f], in));
            sum += tables_[f][idx.back()];
        }
        const int conf = std::clamp(sum, -cfg_.confidenceClamp - 1,
                                    cfg_.confidenceClamp);
        if (sampling_.sampled(set))
            sample(info, set, idx, conf);
        lastMiss_[set] = hit ? 0 : 1;
        lastBlock_[set] = blk;
        return conf;
    }

    std::uint64_t trainingEvents() const { return trainingEvents_; }

    /** Valid entries in the fullest sampler set. */
    std::size_t
    maxOccupancy() const
    {
        std::size_t most = 0;
        for (const auto& s : sets_)
            most = std::max<std::size_t>(
                most, std::count_if(s.begin(), s.end(),
                                    [](const Entry& e) { return e.valid; }));
        return most;
    }

  private:
    struct Entry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        int confidence = 0;
        std::vector<std::uint32_t> indices;
    };

    void
    bump(std::size_t f, std::uint32_t i, bool dead)
    {
        const int lo = -(1 << (cfg_.weightBits - 1));
        const int hi = (1 << (cfg_.weightBits - 1)) - 1;
        int w = tables_[f][i] + (dead ? 1 : -1);
        tables_[f][i] = static_cast<std::int8_t>(std::clamp(w, lo, hi));
    }

    void
    demote(const std::vector<Entry>& s, std::size_t n)
    {
        for (std::size_t q = 0; q < n; ++q) {
            if (!s[q].valid || s[q].confidence >= cfg_.trainingThreshold)
                continue;
            for (std::size_t f = 0; f < cfg_.features.size(); ++f)
                if (q + 1 == cfg_.features[f].assoc)
                    bump(f, s[q].indices[f], true);
        }
    }

    void
    sample(const cache::AccessInfo& info, std::uint32_t set,
           const std::vector<std::uint32_t>& idx, int conf)
    {
        auto& s = sets_[sampling_.samplerSetOf(set)];
        const std::uint16_t tag = policy::SetSampling::partialTag(info.addr);
        std::size_t pos = 0;
        while (pos < s.size() && !(s[pos].valid && s[pos].tag == tag))
            ++pos;
        if (pos < s.size()) {
            if (s[pos].confidence > -cfg_.trainingThreshold)
                for (std::size_t f = 0; f < cfg_.features.size(); ++f)
                    if (pos < cfg_.features[f].assoc)
                        bump(f, s[pos].indices[f], false);
            demote(s, pos);
            s.erase(s.begin() + static_cast<long>(pos));
        } else {
            std::size_t valid = 0;
            while (valid < s.size() && s[valid].valid)
                ++valid;
            demote(s, valid);
            if (valid == s.size())
                s.pop_back();
        }
        ++trainingEvents_;
        s.insert(s.begin(), Entry{true, tag, conf, idx});
    }

    MultiperspectiveConfig cfg_;
    policy::SetSampling sampling_;
    std::vector<std::vector<Entry>> sets_;
    std::vector<std::vector<std::int8_t>> tables_;
    std::vector<std::uint8_t> lastMiss_;
    std::vector<Addr> lastBlock_;
    std::uint64_t trainingEvents_ = 0;
};

/**
 * Drive both predictors with one random stream and require identical
 * confidences throughout. Blocks come from a pool a few times larger
 * than the sampler per set, so reuses land at every LRU depth, above
 * and below samplerAssoc; a few PCs saturate weights quickly, which
 * exercises the order of live and dead bumps to one weight.
 */
void
expectMatchesReference(const MultiperspectiveConfig& cfg,
                       std::uint64_t seed, int accesses)
{
    const cache::CacheGeometry g(64 * 1024, 16); // 64 sets, all sampled
    MultiperspectivePredictor pred(g, 1, cfg);
    ReferencePredictor ref(g, 1, cfg);
    Rng rng(seed);
    cache::CoreContext ctx;
    for (int i = 0; i < accesses; ++i) {
        cache::AccessInfo info;
        info.pc = 0x400000 + 4 * rng.below(6);
        const std::uint32_t set = static_cast<std::uint32_t>(rng.below(4));
        info.addr = ((rng.below(64) * 64 + set) << kBlockShift) |
                    rng.below(kBlockBytes);
        info.ctx = rng.chance(0.05) ? nullptr : &ctx;
        info.type = rng.chance(0.05) ? cache::AccessType::Writeback
                                     : cache::AccessType::Load;
        const bool hit = rng.chance(0.4);
        ASSERT_EQ(pred.observe(info, set, hit), ref.observe(info, set, hit))
            << "access " << i;
        ctx.notePc(info.pc);
    }
    EXPECT_EQ(pred.trainingEvents(), ref.trainingEvents());
    EXPECT_LE(pred.maxSamplerOccupancy(), cfg.samplerAssoc);
}

TEST(PredictorReferenceTest, PublishedSetsMatchTheReference)
{
    expectMatchesReference(smallConfig(featureSetTable1A()), 31, 60000);
    auto cfg = smallConfig(featureSetTable1A());
    cfg.trainingThreshold = 0; // train on every event
    expectMatchesReference(cfg, 32, 60000);
}

TEST(PredictorReferenceTest, RandomSetsMatchTheReference)
{
    Rng rng(33);
    for (int trial = 0; trial < 12; ++trial) {
        MultiperspectiveConfig cfg;
        cfg.samplerAssoc = static_cast<std::uint32_t>(rng.range(4, 18));
        cfg.weightBits = static_cast<unsigned>(rng.range(3, 6));
        cfg.trainingThreshold = static_cast<int>(rng.range(0, 80));
        const std::size_t n = 1 + rng.below(kMaxFeatures);
        for (std::size_t f = 0; f < n; ++f) {
            FeatureSpec spec = FeatureSpec::random(rng);
            spec.assoc = std::min(spec.assoc, cfg.samplerAssoc);
            cfg.features.push_back(spec);
        }
        SCOPED_TRACE(formatFeatureSet(cfg.features));
        expectMatchesReference(cfg, 100 + trial, 20000);
    }
}

TEST(PredictorTest, SamplerSetsStayBounded)
{
    // One sampled set sees four times samplerAssoc distinct blocks,
    // then revisits them: occupancy must stop at samplerAssoc while
    // every confidence and the training count stay the reference's.
    const auto cfg = smallConfig(featureSetTable1A());
    MultiperspectivePredictor pred(geom(), 1, cfg);
    ReferencePredictor ref(geom(), 1, cfg);
    const std::uint32_t blocks = 4 * cfg.samplerAssoc;
    for (int round = 0; round < 3; ++round) {
        for (std::uint32_t b = 0; b < blocks; ++b) {
            const auto info =
                access(0x400000 + 4 * (b % 3), Addr{b} * 2048 * 64);
            ASSERT_EQ(pred.observe(info, 0, round > 0),
                      ref.observe(info, 0, round > 0));
        }
    }
    EXPECT_EQ(pred.maxSamplerOccupancy(), cfg.samplerAssoc);
    EXPECT_EQ(ref.maxOccupancy(), blocks); // the unbounded stack
    EXPECT_EQ(pred.trainingEvents(), ref.trainingEvents());
    EXPECT_EQ(pred.trainingEvents(), 3u * blocks);
}

} // namespace
} // namespace mrp::core
