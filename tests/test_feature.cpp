/**
 * @file
 * Tests for the parameterized feature machinery: parsing, formatting,
 * table sizing, index computation, the published feature sets, and
 * the search-support helpers.
 */

#include <gtest/gtest.h>

#include <array>

#include "core/feature.hpp"
#include "core/feature_sets.hpp"
#include "util/bitfield.hpp"
#include "util/logging.hpp"

namespace mrp::core {
namespace {

TEST(FeatureSpecTest, ParseFormatRoundTrip)
{
    for (const char* text :
         {"pc(10,1,53,10,0)", "address(11,8,19,0)", "bias(16,0)",
          "burst(6,0)", "insert(17,1)", "lastmiss(9,0)",
          "offset(15,1,6,1)", "pc(17,6,20,14,1)"}) {
        const FeatureSpec f = FeatureSpec::parse(text);
        EXPECT_EQ(f.toString(), text);
        EXPECT_EQ(FeatureSpec::parse(f.toString()), f);
    }
}

TEST(FeatureSpecTest, ParseRejectsMalformed)
{
    EXPECT_THROW(FeatureSpec::parse("bogus(1,0)"), FatalError);
    EXPECT_THROW(FeatureSpec::parse("pc(1,2,3)"), FatalError);
    EXPECT_THROW(FeatureSpec::parse("bias(1,2,3,4)"), FatalError);
    EXPECT_THROW(FeatureSpec::parse("pc"), FatalError);
    EXPECT_THROW(FeatureSpec::parse("bias(0,0)"), FatalError); // A = 0
    EXPECT_THROW(FeatureSpec::parse("bias(19,0)"), FatalError); // A > 18
}

TEST(FeatureSpecTest, TableSizesFollowThePaper)
{
    // §3.4: pc/address/XORed features: 256; offset up to 64;
    // single-bit: 2; bias: 1.
    EXPECT_EQ(FeatureSpec::parse("pc(10,1,53,10,0)").tableSize(), 256u);
    EXPECT_EQ(FeatureSpec::parse("address(11,8,19,0)").tableSize(),
              256u);
    EXPECT_EQ(FeatureSpec::parse("burst(6,1)").tableSize(), 256u);
    EXPECT_EQ(FeatureSpec::parse("bias(6,1)").tableSize(), 256u);
    EXPECT_EQ(FeatureSpec::parse("offset(15,0,5,0)").tableSize(), 64u);
    EXPECT_EQ(FeatureSpec::parse("offset(15,2,4,0)").tableSize(), 8u);
    EXPECT_EQ(FeatureSpec::parse("burst(6,0)").tableSize(), 2u);
    EXPECT_EQ(FeatureSpec::parse("insert(16,0)").tableSize(), 2u);
    EXPECT_EQ(FeatureSpec::parse("lastmiss(9,0)").tableSize(), 2u);
    EXPECT_EQ(FeatureSpec::parse("bias(16,0)").tableSize(), 1u);
}

TEST(FeatureIndexTest, IndicesStayInTable)
{
    Rng rng(3);
    cache::CoreContext ctx;
    for (int i = 0; i < 64; ++i)
        ctx.pcHistory.push(0x400000 + 4 * rng.below(4096));
    for (int trial = 0; trial < 2000; ++trial) {
        const FeatureSpec f = FeatureSpec::random(rng);
        FeatureInput in;
        in.pc = 0x400000 + 4 * rng.below(4096);
        in.addr = rng.next() & ((1ull << 48) - 1);
        in.ctx = &ctx;
        in.isInsert = rng.chance(0.5);
        in.lastMiss = rng.chance(0.5);
        in.isBurst = rng.chance(0.5);
        EXPECT_LT(featureIndex(f, in), f.tableSize()) << f.toString();
    }
}

TEST(FeatureIndexTest, SingleBitFeaturesReflectTheirInput)
{
    FeatureInput in;
    in.pc = 0x400040;
    in.isInsert = true;
    EXPECT_EQ(featureIndex(FeatureSpec::parse("insert(16,0)"), in), 1u);
    in.isInsert = false;
    EXPECT_EQ(featureIndex(FeatureSpec::parse("insert(16,0)"), in), 0u);
    in.isBurst = true;
    EXPECT_EQ(featureIndex(FeatureSpec::parse("burst(6,0)"), in), 1u);
    in.lastMiss = true;
    EXPECT_EQ(featureIndex(FeatureSpec::parse("lastmiss(9,0)"), in), 1u);
}

TEST(FeatureIndexTest, BiasIgnoresEverything)
{
    const FeatureSpec bias = FeatureSpec::parse("bias(16,0)");
    FeatureInput a;
    a.pc = 0x1234;
    a.addr = 0x9999;
    FeatureInput b;
    b.pc = 0x5678;
    b.addr = 0x1111;
    EXPECT_EQ(featureIndex(bias, a), featureIndex(bias, b));
    EXPECT_EQ(featureIndex(bias, a), 0u);
}

TEST(FeatureIndexTest, XorDistributesByPc)
{
    const FeatureSpec f = FeatureSpec::parse("bias(6,1)");
    FeatureInput a;
    a.pc = 0x400000;
    FeatureInput b;
    b.pc = 0x400004;
    EXPECT_NE(featureIndex(f, a), featureIndex(f, b));
}

TEST(FeatureIndexTest, OffsetUsesInBlockBits)
{
    const FeatureSpec f = FeatureSpec::parse("offset(15,0,5,0)");
    FeatureInput a;
    a.addr = 0x1000 + 17;
    EXPECT_EQ(featureIndex(f, a), 17u);
    // Bits above the block stay invisible.
    FeatureInput b;
    b.addr = 0x2000 + 17;
    EXPECT_EQ(featureIndex(f, b), 17u);
}

TEST(FeatureIndexTest, PcDepthReadsHistory)
{
    cache::CoreContext ctx;
    ctx.pcHistory.push(0x400100); // 2nd most recent
    ctx.pcHistory.push(0x400200); // most recent previous
    const FeatureSpec w1 = FeatureSpec::parse("pc(16,0,16,1,0)");
    const FeatureSpec w2 = FeatureSpec::parse("pc(16,0,16,2,0)");
    const FeatureSpec w0 = FeatureSpec::parse("pc(16,0,16,0,0)");
    FeatureInput in;
    in.pc = 0x400300;
    in.ctx = &ctx;
    EXPECT_EQ(featureIndex(w0, in),
              foldXor(bits(0x400300, 0, 16), 8));
    EXPECT_EQ(featureIndex(w1, in),
              foldXor(bits(0x400200, 0, 16), 8));
    EXPECT_EQ(featureIndex(w2, in),
              foldXor(bits(0x400100, 0, 16), 8));
}

// ---- FeaturePlan: the compiled hot path against featureIndex ----

/** A random access; null ctx about one time in eight. */
FeatureInput
randomInput(Rng& rng, const cache::CoreContext& ctx)
{
    FeatureInput in;
    in.pc = rng.chance(0.5) ? rng.next()
                            : 0x400000 + 4 * rng.below(1 << 20);
    in.addr = rng.chance(0.5) ? rng.next()
                              : rng.next() & ((1ull << 48) - 1);
    in.ctx = rng.chance(0.125) ? nullptr : &ctx;
    in.isInsert = rng.chance(0.5);
    in.lastMiss = rng.chance(0.5);
    in.isBurst = rng.chance(0.5);
    return in;
}

/** The plan must agree with featureIndex on every feature. */
void
expectPlanMatches(const std::vector<FeatureSpec>& specs, Rng& rng,
                  const cache::CoreContext& ctx, int inputs)
{
    const FeaturePlan plan(specs);
    ASSERT_EQ(plan.size(), specs.size());
    std::size_t base = 0;
    for (std::size_t f = 0; f < specs.size(); ++f) {
        EXPECT_EQ(plan.base(f), base);
        EXPECT_EQ(plan.tableSize(f), specs[f].tableSize());
        base += specs[f].tableSize();
    }
    EXPECT_EQ(plan.arenaSize(), base);

    std::array<std::uint8_t, kMaxFeatures> got{};
    for (int i = 0; i < inputs; ++i) {
        const FeatureInput in = randomInput(rng, ctx);
        plan.indices(in, got.data());
        for (std::size_t f = 0; f < specs.size(); ++f)
            ASSERT_EQ(got[f], featureIndex(specs[f], in))
                << specs[f].toString() << " pc=" << in.pc
                << " addr=" << in.addr << " ctx=" << (in.ctx != nullptr);
    }
}

cache::CoreContext
randomContext(Rng& rng)
{
    cache::CoreContext ctx;
    for (int i = 0; i < 50; ++i)
        ctx.notePc(rng.next());
    return ctx;
}

TEST(FeaturePlanTest, MatchesFeatureIndexOnRandomSpecs)
{
    Rng rng(21);
    const cache::CoreContext ctx = randomContext(rng);
    for (int trial = 0; trial < 400; ++trial) {
        std::vector<FeatureSpec> specs;
        const std::size_t n = 1 + rng.below(kMaxFeatures);
        for (std::size_t f = 0; f < n; ++f) {
            FeatureSpec spec = FeatureSpec::random(rng);
            for (std::uint64_t k = rng.below(4); k > 0; --k)
                spec = spec.perturbed(rng);
            specs.push_back(spec);
        }
        expectPlanMatches(specs, rng, ctx, 25);
    }
}

TEST(FeaturePlanTest, MatchesFeatureIndexOnEdgeSpecs)
{
    Rng rng(22);
    const cache::CoreContext ctx = randomContext(rng);
    const unsigned kHuge = ~0u;
    std::vector<FeatureSpec> specs;
    for (const char* text :
         {// Depth 0 reads the access PC; deep history and a null ctx
          // fall back to it.
          "pc(4,0,63,0,0)", "pc(4,0,63,17,0)", "pc(4,2,40,1,1)",
          // Reversed B/E.
          "pc(9,40,3,5,0)", "address(3,30,6,1)", "offset(7,5,0,0)",
          "offset(7,4,1,1)",
          // Ranges reaching and passing bit 63.
          "address(2,60,63,0)", "address(2,60,90,0)",
          "address(2,64,70,0)", "address(2,90,64,1)",
          "offset(5,3,200,0)", "offset(5,70,80,0)", "pc(6,63,63,3,0)",
          // X on the narrow kinds.
          "bias(16,1)", "burst(6,1)", "insert(17,1)", "lastmiss(9,1)",
          "offset(15,0,5,1)", "offset(15,6,9,1)"})
        specs.push_back(FeatureSpec::parse(text));
    // Unsigned extremes the text form cannot spell.
    FeatureSpec wide = FeatureSpec::parse("offset(5,0,0,0)");
    wide.end = kHuge;
    specs.push_back(wide);
    wide.begin = kHuge;
    wide.end = 0;
    specs.push_back(wide);
    wide.kind = FeatureKind::Address;
    specs.push_back(wide);
    ASSERT_LE(specs.size(), kMaxFeatures);
    expectPlanMatches(specs, rng, ctx, 4000);

    // The same specs one at a time, each as its own plan.
    for (const FeatureSpec& f : specs)
        expectPlanMatches({f}, rng, ctx, 200);
}

TEST(FeaturePlanTest, SharesHistorySourcesAcrossFeatures)
{
    // Several features reading the same and different depths.
    Rng rng(23);
    const cache::CoreContext ctx = randomContext(rng);
    expectPlanMatches(
        {FeatureSpec::parse("pc(4,0,15,3,0)"),
         FeatureSpec::parse("pc(4,8,31,3,1)"),
         FeatureSpec::parse("pc(4,0,15,17,0)"),
         FeatureSpec::parse("pc(4,0,15,1,0)"),
         FeatureSpec::parse("pc(4,4,12,3,0)")},
        rng, ctx, 2000);
}

TEST(FeaturePlanTest, RejectsTooManyFeatures)
{
    const std::vector<FeatureSpec> specs(kMaxFeatures + 1);
    EXPECT_THROW(FeaturePlan{specs}, FatalError);
}

TEST(PublishedSetsTest, AllThreeHaveSixteenFeatures)
{
    EXPECT_EQ(featureSetTable1A().size(), 16u);
    EXPECT_EQ(featureSetTable1B().size(), 16u);
    EXPECT_EQ(featureSetTable2().size(), 16u);
}

TEST(PublishedSetsTest, Table1AContainsThePaperEntries)
{
    const auto set = featureSetTable1A();
    auto contains = [&](const char* text) {
        const FeatureSpec f = FeatureSpec::parse(text);
        for (const auto& g : set)
            if (g == f)
                return true;
        return false;
    };
    EXPECT_TRUE(contains("bias(16,0)"));
    EXPECT_TRUE(contains("burst(6,0)"));
    EXPECT_TRUE(contains("lastmiss(9,0)"));
    EXPECT_TRUE(contains("pc(7,14,43,11,0)"));
    // pc(17,6,20,0,1) appears twice in the published table.
    int count = 0;
    const FeatureSpec dup = FeatureSpec::parse("pc(17,6,20,0,1)");
    for (const auto& g : set)
        if (g == dup)
            ++count;
    EXPECT_EQ(count, 2);
}

TEST(PublishedSetsTest, AssociativitiesWithinSamplerRange)
{
    for (const auto& set :
         {featureSetTable1A(), featureSetTable1B(), featureSetTable2()})
        for (const auto& f : set) {
            EXPECT_GE(f.assoc, 1u);
            EXPECT_LE(f.assoc, kMaxFeatureAssoc);
        }
}

TEST(HelpersTest, UniformAssociativityAndWithout)
{
    const auto set = featureSetTable1A();
    const auto uni = withUniformAssociativity(set, 5);
    ASSERT_EQ(uni.size(), set.size());
    for (const auto& f : uni)
        EXPECT_EQ(f.assoc, 5u);
    const auto smaller = without(set, 3);
    EXPECT_EQ(smaller.size(), set.size() - 1);
    EXPECT_THROW(without(set, set.size()), FatalError);
    EXPECT_THROW(withUniformAssociativity(set, 0), FatalError);
    EXPECT_THROW(withUniformAssociativity(set, 19), FatalError);
}

TEST(HelpersTest, RandomFeaturesAreValidAndDiverse)
{
    Rng rng(11);
    std::set<std::string> kinds;
    for (int i = 0; i < 300; ++i) {
        const FeatureSpec f = FeatureSpec::random(rng);
        EXPECT_GE(f.assoc, 1u);
        EXPECT_LE(f.assoc, kMaxFeatureAssoc);
        EXPECT_GT(f.tableSize(), 0u);
        kinds.insert(f.toString().substr(0, f.toString().find('(')));
        // Round-trips through text.
        EXPECT_EQ(FeatureSpec::parse(f.toString()), f);
    }
    EXPECT_EQ(kinds.size(), 7u); // all seven kinds get generated
}

TEST(HelpersTest, PerturbKeepsValidity)
{
    Rng rng(13);
    FeatureSpec f = FeatureSpec::parse("pc(10,1,53,10,0)");
    for (int i = 0; i < 200; ++i) {
        f = f.perturbed(rng);
        EXPECT_GE(f.assoc, 1u);
        EXPECT_LE(f.assoc, kMaxFeatureAssoc);
        EXPECT_EQ(FeatureSpec::parse(f.toString()), f);
    }
}

TEST(HelpersTest, FormatFeatureSetOnePerLine)
{
    const auto text = formatFeatureSet(featureSetTable1A());
    EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 16);
    EXPECT_NE(text.find("bias(16,0)"), std::string::npos);
}

} // namespace
} // namespace mrp::core
