/**
 * @file
 * The seven parameterized feature types of multiperspective reuse
 * prediction (paper §3.2).
 *
 * Every feature carries an associativity parameter A — the LRU stack
 * position beyond which a block counts as dead *for that feature's
 * table* — and a Boolean X that exclusive-ORs the feature bits with
 * the current PC. pc/address/offset features additionally select a bit
 * range B..E of their value; pc selects the W-th most recent memory
 * access instruction.
 */

#ifndef MRP_CORE_FEATURE_HPP
#define MRP_CORE_FEATURE_HPP

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "cache/access.hpp"
#include "util/bitfield.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace mrp::core {

/** The seven feature types. */
enum class FeatureKind : std::uint8_t {
    Pc,       //!< pc(A,B,E,W,X): bits of the W-th most recent PC
    Address,  //!< address(A,B,E,X): bits of the physical address
    Bias,     //!< bias(A,X): the constant 0 (a global/PC counter)
    Burst,    //!< burst(A,X): access is to the set's MRU block
    Insert,   //!< insert(A,X): access is an insertion (missed)
    LastMiss, //!< lastmiss(A,X): previous access to this set missed
    Offset,   //!< offset(A,B,E,X): bits of the in-block byte offset
};

/** Largest associativity a feature may simulate (sampler is 18-way). */
inline constexpr unsigned kMaxFeatureAssoc = 18;

/** One fully parameterized feature. */
struct FeatureSpec
{
    FeatureKind kind = FeatureKind::Bias;
    unsigned assoc = kMaxFeatureAssoc; //!< A in 1..18
    unsigned begin = 0;                //!< B (pc/address/offset)
    unsigned end = 0;                  //!< E
    unsigned depth = 0;                //!< W (pc only)
    bool xorPc = false;                //!< X

    /** Number of weights in this feature's table (1, 2, <=64, 256). */
    std::uint32_t tableSize() const;

    /** Paper-style text form, e.g.\ "pc(10,1,53,10,0)". */
    std::string toString() const;

    /** Parse the paper-style text form; throws FatalError on errors. */
    static FeatureSpec parse(const std::string& text);

    /** Draw a uniformly random valid feature (search, §5.1). */
    static FeatureSpec random(Rng& rng);

    /** Return a copy with one parameter slightly perturbed (§5.1). */
    FeatureSpec perturbed(Rng& rng) const;

    bool operator==(const FeatureSpec&) const = default;
};

/** Everything a feature may look at when forming its index. */
struct FeatureInput
{
    Pc pc = 0;
    Addr addr = 0;
    const cache::CoreContext* ctx = nullptr;
    bool isInsert = false; //!< this access missed (block being placed)
    bool lastMiss = false; //!< previous access to this set missed
    bool isBurst = false;  //!< this access is to the set's MRU block
};

/**
 * Compute the feature's table index for one access. This is the
 * reference definition; the predictor's hot path uses FeaturePlan,
 * which must agree with it for every spec and input.
 */
std::uint32_t featureIndex(const FeatureSpec& spec,
                           const FeatureInput& in);

/** Largest feature count a plan (and a sampler entry) holds. */
inline constexpr std::size_t kMaxFeatures = 24;

/**
 * A feature list compiled once into flat steps over one weight arena.
 *
 * Each step selects one per-access source word, extracts its bit
 * range (shift, then mask), folds the result to 8 bits, xors in the
 * folded PC when X is set, and masks to its table size. The tables sit
 * back to back in one arena; step f's weights start at base(f). The
 * fold is applied to every kind: only pc and address values can be
 * wider than their table, and every other value already fits below
 * 64, where the 8-bit fold is the identity. indices() therefore equals
 * featureIndex() exactly (tests/test_feature.cpp checks this
 * differentially).
 */
class FeaturePlan
{
  public:
    explicit FeaturePlan(const std::vector<FeatureSpec>& specs);

    std::size_t size() const { return steps_.size(); }

    /** Total weights over all tables: the arena length. */
    std::size_t arenaSize() const { return arenaSize_; }

    /** Arena offset of feature @p f's first weight. */
    std::uint32_t base(std::size_t f) const { return steps_[f].base; }

    /** Number of weights in feature @p f's table. */
    std::uint32_t tableSize(std::size_t f) const
    {
        return std::uint32_t{steps_[f].indexMask} + 1;
    }

    /** Table index of every feature for one access, into @p out. */
    void
    indices(const FeatureInput& in, std::uint8_t* out) const
    {
        std::array<std::uint64_t, kSources + kMaxFeatures> src;
        src[kPc] = in.pc;
        src[kAddr] = in.addr;
        src[kOffset] = blockOffset(in.addr);
        src[kBurst] = in.isBurst;
        src[kInsert] = in.isInsert;
        src[kLastMiss] = in.lastMiss;
        src[kZero] = 0;
        for (std::size_t k = 0; k < depths_.size(); ++k)
            src[kSources + k] =
                in.ctx ? in.ctx->pcHistory.recent(depths_[k] - 1) : in.pc;
        const std::uint64_t pc_fold = fold8(in.pc >> 2);
        for (std::size_t f = 0; f < steps_.size(); ++f) {
            const Step& s = steps_[f];
            const std::uint64_t v = fold8((src[s.source] >> s.shift) & s.mask);
            out[f] = static_cast<std::uint8_t>((v ^ (pc_fold & s.xorMask)) &
                                               s.indexMask);
        }
    }

  private:
    /** Source words shared by all steps; history PCs follow them. */
    enum : std::uint8_t {
        kPc,
        kAddr,
        kOffset,
        kBurst,
        kInsert,
        kLastMiss,
        kZero,
        kSources
    };

    struct Step
    {
        std::uint64_t mask;     //!< bit-range width mask, after shift
        std::uint32_t base;     //!< arena offset of the table
        std::uint8_t source;    //!< index into the source words
        std::uint8_t shift;     //!< bit-range start B
        std::uint8_t xorMask;   //!< 0xff when X is set, else 0
        std::uint8_t indexMask; //!< table size - 1
    };

    std::vector<Step> steps_;
    std::vector<unsigned> depths_; //!< distinct W >= 1, source order
    std::size_t arenaSize_ = 0;
};

/** Render a whole feature set, one feature per line. */
std::string formatFeatureSet(const std::vector<FeatureSpec>& set);

/** Copy of @p set with every associativity forced to @p assoc. */
std::vector<FeatureSpec>
withUniformAssociativity(const std::vector<FeatureSpec>& set,
                         unsigned assoc);

/** Copy of @p set with element @p idx removed. */
std::vector<FeatureSpec> without(const std::vector<FeatureSpec>& set,
                                 std::size_t idx);

} // namespace mrp::core

#endif // MRP_CORE_FEATURE_HPP
