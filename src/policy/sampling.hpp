/**
 * @file
 * Set-sampling arithmetic shared by the sampler-based predictors:
 * which LLC sets are sampled, their dedicated sampler-set index, and
 * the 16-bit partial tags the samplers store.
 */

#ifndef MRP_POLICY_SAMPLING_HPP
#define MRP_POLICY_SAMPLING_HPP

#include <cstdint>

#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/types.hpp"

namespace mrp::policy {

/** Maps LLC sets onto a smaller population of sampled sets. */
class SetSampling
{
  public:
    SetSampling(std::uint32_t llc_sets, std::uint32_t sampled_sets)
        : ratio_(checkedRatio(llc_sets, sampled_sets)),
          sampledSets_(sampled_sets)
    {
    }

    std::uint32_t sampledSets() const { return sampledSets_; }

    /** True if @p llc_set is one of the sampled sets. */
    bool sampled(std::uint32_t llc_set) const
    {
        return llc_set % ratio_ == 0;
    }

    /** Sampler-set index of a sampled LLC set. */
    std::uint32_t
    samplerSetOf(std::uint32_t llc_set) const
    {
        // Not panicIf: it would build the message on every call.
        if (!sampled(llc_set))
            panic("set is not sampled");
        return llc_set / ratio_;
    }

    /** 16-bit partial tag stored by the samplers (paper §3.3). */
    static std::uint16_t
    partialTag(Addr addr)
    {
        return static_cast<std::uint16_t>(mix64(blockAddr(addr)));
    }

  private:
    static std::uint32_t
    checkedRatio(std::uint32_t llc_sets, std::uint32_t sampled_sets)
    {
        fatalIf(sampled_sets == 0 || sampled_sets > llc_sets,
                "invalid sampled-set count");
        fatalIf(llc_sets % sampled_sets != 0,
                "sampled sets must divide the LLC set count");
        return llc_sets / sampled_sets;
    }

    std::uint32_t ratio_;
    std::uint32_t sampledSets_;
};

} // namespace mrp::policy

#endif // MRP_POLICY_SAMPLING_HPP
