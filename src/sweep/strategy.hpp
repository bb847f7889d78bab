/**
 * @file
 * Pluggable search strategies over a SearchSpace.
 *
 * A Strategy is an ask/tell loop: ask() proposes the next batch of
 * candidates (one generation), the Study evaluates them, and tell()
 * feeds the fitnesses back; an empty ask() ends the study. Strategies
 * are strictly deterministic — all randomness comes from the portable
 * Rng seeded at construction, and tell() is always called with results
 * in ask order — so replaying a strategy against cached fitnesses
 * reproduces the identical candidate sequence (the basis of crash-safe
 * resume).
 *
 * Four strategies, in increasing sophistication:
 *  - ListStrategy: an explicit candidate list, one generation.
 *  - GridStrategy: cross product of per-gene value axes over a base
 *    genome (the engine behind the figure benches' enumerations).
 *  - RandomStrategy: uniform random sampling (paper §5.1's seeding).
 *  - HalvingStrategy: successive halving — rungs of short-trace
 *    evaluations promoting the top 1/eta to longer traces.
 *  - GeneticStrategy: tournament selection, uniform crossover,
 *    per-gene mutation, elitism (monotone non-decreasing best).
 */

#ifndef MRP_SWEEP_STRATEGY_HPP
#define MRP_SWEEP_STRATEGY_HPP

#include <cstdint>
#include <string>
#include <vector>

#include "sweep/search_space.hpp"
#include "util/types.hpp"

namespace mrp::sweep {

/** One proposed configuration: a genome and the evaluation budget.
 * budgetInsts 0 = the objective's full trace length; a nonzero value
 * asks for shorter traces (successive halving's cheap rungs). */
struct Candidate
{
    Genome genome;
    InstCount budgetInsts = 0;
};

/**
 * Budget sentinel: a rung budget with this bit set asks the objective
 * to evaluate the candidate under SHARDS spatial sampling (the MRC
 * engine's cheap low rung) instead of merely shortening the trace.
 * The Study treats budgets opaquely — a sampled and a full evaluation
 * of the same genome occupy distinct fitness-cache keys for free —
 * and only sampling-aware objectives (mrc::SampledRungObjective)
 * interpret the bit; plain objectives must never see it. Far above
 * any real instruction budget.
 */
inline constexpr InstCount kSampledBudgetFlag = InstCount{1} << 62;

/** Outcome of one candidate, as reported back to the strategy. */
struct Evaluated
{
    Candidate candidate;
    double fitness = 0.0; //!< higher is better; kFailedFitness if !ok
    double mpki = 0.0;
    bool ok = true;
};

/** Fitness assigned to failed candidates, so selection can still rank
 * them (always last). Exactly representable, round-trips via JSON. */
inline constexpr double kFailedFitness = -1e18;

class Strategy
{
  public:
    virtual ~Strategy() = default;
    virtual std::string name() const = 0;
    /** Next generation of candidates; empty = the study is done. */
    virtual std::vector<Candidate> ask() = 0;
    /** Results for the last ask(), in ask order. */
    virtual void tell(const std::vector<Evaluated>& results) = 0;
};

/** Evaluate an explicit list of candidates (one generation). */
class ListStrategy : public Strategy
{
  public:
    explicit ListStrategy(std::vector<Candidate> candidates);

    std::string name() const override { return "list"; }
    std::vector<Candidate> ask() override;
    void tell(const std::vector<Evaluated>& results) override;

  private:
    std::vector<Candidate> candidates_;
    bool asked_ = false;
};

/** One axis of a grid: the gene index to vary and its values. */
struct GridAxis
{
    std::size_t gene = 0;
    std::vector<int> values;
};

/**
 * Full cross product of the axes applied to a base genome, evaluated
 * as one generation (genomes are clamped, so combinations that
 * canonicalize to the same configuration hit the fitness cache).
 */
class GridStrategy : public Strategy
{
  public:
    GridStrategy(const SearchSpace& space, Genome base,
                 std::vector<GridAxis> axes);

    std::string name() const override { return "grid"; }
    std::vector<Candidate> ask() override;
    void tell(const std::vector<Evaluated>& results) override;

  private:
    std::vector<Candidate> candidates_;
    bool asked_ = false;
};

/** Uniform random sampling: generations × population draws. */
class RandomStrategy : public Strategy
{
  public:
    RandomStrategy(const SearchSpace& space, unsigned generations,
                   unsigned population, std::uint64_t seed);

    std::string name() const override { return "random"; }
    std::vector<Candidate> ask() override;
    void tell(const std::vector<Evaluated>& results) override;

  private:
    const SearchSpace& space_;
    unsigned generations_;
    unsigned population_;
    unsigned generation_ = 0;
    Rng rng_;
};

/**
 * Successive halving: rung r evaluates its survivors at budget
 * fullInstructions / eta^(rungs-1-r) (the last rung at the full
 * length, budget 0), then promotes the top ceil(n/eta) to the next
 * rung. Spends most simulation time on the most promising genomes.
 */
class HalvingStrategy : public Strategy
{
  public:
    struct Config
    {
        unsigned initial = 16;  //!< rung-0 population
        unsigned eta = 2;       //!< promotion factor
        unsigned rungs = 3;     //!< budget ladder length
        InstCount fullInstructions = 0; //!< objective's full length
        /**
         * Nonzero = rung 0 runs under SHARDS sampling at rate
         * 2^-mrcRateLog2: its budgets carry kSampledBudgetFlag, so a
         * sampling-aware objective (mrc::SampledRungObjective) streams
         * sampled traces through a rate-scaled hierarchy — an
         * order-of-magnitude cheaper first cut with near-identical
         * ranking. Requires such an objective; must be in [0, 24).
         */
        unsigned mrcRateLog2 = 0;
    };

    HalvingStrategy(const SearchSpace& space, const Config& cfg,
                    std::uint64_t seed);

    std::string name() const override { return "halving"; }
    std::vector<Candidate> ask() override;
    void tell(const std::vector<Evaluated>& results) override;

  private:
    InstCount budgetForRung(unsigned rung) const;

    const SearchSpace& space_;
    Config cfg_;
    unsigned rung_ = 0;
    std::vector<Genome> survivors_; //!< promoted into the next rung
    Rng rng_;
};

/**
 * Genetic search: tournament selection over the previous generation,
 * uniform crossover, per-gene mutation, and elitism (the top `elites`
 * genomes re-enter unchanged, which both preserves the incumbent and
 * makes the per-generation best fitness monotone non-decreasing —
 * elites re-evaluate as fitness-cache hits, not fresh simulations).
 */
class GeneticStrategy : public Strategy
{
  public:
    struct Config
    {
        unsigned generations = 5;
        unsigned population = 16;
        unsigned tournament = 3;     //!< selection pressure
        double crossoverRate = 0.9;  //!< else clone parent A
        double mutationRate = 0.08;  //!< per gene
        unsigned elites = 2;
        /** Initial genomes (e.g. the encoded paper default); the rest
         * of generation 0 is filled with random draws. */
        std::vector<Genome> seeds;
    };

    GeneticStrategy(const SearchSpace& space, const Config& cfg,
                    std::uint64_t seed);

    std::string name() const override { return "genetic"; }
    std::vector<Candidate> ask() override;
    void tell(const std::vector<Evaluated>& results) override;

  private:
    std::size_t tournamentPick();
    Genome breed();

    const SearchSpace& space_;
    Config cfg_;
    unsigned generation_ = 0;
    std::vector<Evaluated> parents_; //!< last generation, ask order
    Rng rng_;
};

} // namespace mrp::sweep

#endif // MRP_SWEEP_STRATEGY_HPP
