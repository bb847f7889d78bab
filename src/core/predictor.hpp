/**
 * @file
 * The multiperspective reuse predictor (paper §3).
 *
 * A hashed-perceptron organization: each of up to 16 parameterized
 * features indexes its own table of 6-bit weights; the selected
 * weights are summed into a 9-bit confidence (positive = predicted
 * dead). Training uses an 18-way true-LRU sampler of partial tags.
 * Unlike prior work, each feature has its own associativity A: a hit
 * at LRU position p trains "live" only in tables with p < A, and a
 * block demoted exactly to position A is trained "dead" in that
 * feature's table — so one access can increment some tables, leave
 * some alone, and decrement others (§3.1, §3.8).
 */

#ifndef MRP_CORE_PREDICTOR_HPP
#define MRP_CORE_PREDICTOR_HPP

#include <array>
#include <memory>
#include <vector>

#include "cache/geometry.hpp"
#include "core/feature.hpp"
#include "policy/reuse_predictor.hpp"
#include "policy/sampling.hpp"
#include "telemetry/metrics.hpp"

namespace mrp::core {

/** Predictor sizing and training parameters. */
struct MultiperspectiveConfig
{
    std::vector<FeatureSpec> features; //!< typically 16 (§5)
    std::uint32_t sampledSetsPerCore = 64;
    std::uint32_t samplerAssoc = 18;
    unsigned weightBits = 6;   //!< weights in [-32, +31]
    int confidenceClamp = 255; //!< 9-bit confidence (§3.3)
    int trainingThreshold = 70; //!< perceptron retraining margin
};

/** The predictor; usable standalone (ROC) or inside MpppbPolicy. */
class MultiperspectivePredictor : public policy::ReusePredictor
{
  public:
    MultiperspectivePredictor(const cache::CacheGeometry& llc_geom,
                              unsigned cores,
                              const MultiperspectiveConfig& cfg);

    std::string name() const override { return "Multiperspective"; }
    int observe(const cache::AccessInfo& info, std::uint32_t set,
                bool hit) override;
    int minConfidence() const override { return -cfg_.confidenceClamp - 1; }
    int maxConfidence() const override { return cfg_.confidenceClamp; }

    const MultiperspectiveConfig& config() const { return cfg_; }

    /** Total weights across all tables (hardware-budget reporting). */
    std::size_t totalWeights() const;

    /** Sampler training events so far (diagnostics). */
    std::uint64_t trainingEvents() const { return trainingEvents_; }

    /** Most entries any sampler set holds (never above samplerAssoc). */
    std::uint32_t maxSamplerOccupancy() const;

    /** Mean |weight| over one feature's table (saturation probe). */
    double meanAbsWeight(std::size_t feature) const;

    /**
     * Register per-feature weight histograms, hit/miss confidence
     * histograms, and mean-|weight| probes with @p registry. The
     * registered gauge callbacks reference this predictor, so it must
     * outlive every snapshot taken from @p registry.
     */
    void attachTelemetry(telemetry::MetricsRegistry& registry);

  private:
    using IndexVec = std::array<std::uint8_t, kMaxFeatures>;

    struct SamplerEntry
    {
        std::uint16_t tag = 0;
        std::int16_t confidence = 0;
        IndexVec indices{};
    };

    /** Histograms fed on every observe() once telemetry is attached. */
    struct Telemetry
    {
        std::vector<telemetry::Histogram*> featureWeight;
        telemetry::Histogram* confidenceHit = nullptr;
        telemetry::Histogram* confidenceMiss = nullptr;
    };

    std::int8_t& weight(std::size_t feature, std::uint8_t index)
    {
        return weights_[plan_.base(feature) + index];
    }
    int sumOf(const IndexVec& idx) const;
    void trainDead(const SamplerEntry* entries, std::size_t demoted);
    void samplerAccess(const cache::AccessInfo& info, std::uint32_t set,
                       const IndexVec& idx, int confidence);

    MultiperspectiveConfig cfg_;
    FeaturePlan plan_;
    int weightMin_;
    int weightMax_;
    policy::SetSampling sampling_;
    /**
     * Sampler sets, samplerAssoc entries each, MRU first; the first
     * samplerCount_[s] entries of set s are valid.
     */
    std::vector<SamplerEntry> sampler_;
    std::vector<std::uint8_t> samplerCount_;
    /** Features by associativity: deadAt_[a] lists those with A == a. */
    std::vector<std::vector<std::uint8_t>> deadAt_;
    std::vector<std::int8_t> weights_; //!< every table, plan_.base order
    // Per-LLC-set feature state.
    std::vector<std::uint8_t> lastMiss_;
    std::vector<Addr> lastBlock_;
    std::uint64_t trainingEvents_ = 0;
    std::unique_ptr<Telemetry> tel_; //!< null until attachTelemetry
};

} // namespace mrp::core

#endif // MRP_CORE_PREDICTOR_HPP
