#include "sim/policies.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <utility>

#include "core/feature_sets.hpp"
#include "policy/ehc.hpp"
#include "policy/hawkeye.hpp"
#include "policy/lru.hpp"
#include "policy/perceptron.hpp"
#include "policy/sdbp.hpp"
#include "policy/ship.hpp"
#include "policy/srrip.hpp"
#include "policy/tree_plru.hpp"
#include "util/logging.hpp"

namespace mrp::sim {

namespace {

struct Entry
{
    PolicyFactory factory;
    int paperRank = -1;
};

struct Registry
{
    std::mutex mutex;
    std::map<std::string, Entry> entries;
};

Registry&
registry()
{
    static Registry r;
    return r;
}

/** Wrap a policy constructor that takes only the geometry. */
template <typename Policy>
PolicyFactory
geomFactory()
{
    return [](const cache::CacheGeometry& g, unsigned) {
        return std::make_unique<Policy>(g);
    };
}

/** Wrap a policy constructor that takes geometry and core count. */
template <typename Policy>
PolicyFactory
coresFactory()
{
    return [](const cache::CacheGeometry& g, unsigned cores) {
        return std::make_unique<Policy>(g, cores);
    };
}

PolicyFactory
mpppbVariant(std::vector<core::FeatureSpec> features)
{
    auto cfg = core::singleThreadMpppbConfig();
    cfg.predictor.features = std::move(features);
    return makeMpppbFactory(cfg);
}

/**
 * Built-in registration, run on first registry use from any thread.
 * Paper ranks order paperPolicyNames() as the figures do: LRU,
 * Hawkeye, Perceptron, MPPPB.
 */
void
registerBuiltins(Registry& r)
{
    const auto add = [&r](const std::string& name, PolicyFactory f,
                          int paper_rank = -1) {
        r.entries.emplace(name,
                          Entry{std::move(f), paper_rank});
    };
    add("LRU", geomFactory<policy::LruPolicy>(), 0);
    add("Random", geomFactory<policy::RandomPolicy>());
    add("SRRIP", geomFactory<policy::SrripPolicy>());
    add("DRRIP", geomFactory<policy::DrripPolicy>());
    add("MDPP", geomFactory<policy::MdppPolicy>());
    add("SHiP", geomFactory<policy::ShipPolicy>());
    add("EHC", geomFactory<policy::EhcPolicy>());
    add("SDBP", coresFactory<policy::SdbpPolicy>());
    add("Perceptron", coresFactory<policy::PerceptronPolicy>(), 2);
    add("Hawkeye", coresFactory<policy::HawkeyePolicy>(), 1);
    add("MPPPB", makeMpppbFactory(core::singleThreadMpppbConfig()), 3);
    add("MPPPB-MC", makeMpppbFactory(core::multiCoreMpppbConfig()));
    auto dyn = core::singleThreadMpppbConfig();
    dyn.dynamicBypass = true;
    add("MPPPB-DYN", makeMpppbFactory(dyn));
    add("MPPPB-1A", mpppbVariant(core::featureSetTable1A()));
    add("MPPPB-1B", mpppbVariant(core::featureSetTable1B()));
    add("MPPPB-Local", mpppbVariant(core::featureSetLocal()));
    add("MPPPB-T2", mpppbVariant(core::featureSetTable2()));
}

Registry&
loadedRegistry()
{
    Registry& r = registry();
    static std::once_flag once;
    std::call_once(once, [&r] {
        std::lock_guard<std::mutex> lock(r.mutex);
        registerBuiltins(r);
    });
    return r;
}

} // namespace

void
PolicyRegistry::registerPolicy(const std::string& name,
                               PolicyFactory factory, int paperRank)
{
    fatalIf(!factory, "null factory registered for policy: " + name);
    Registry& r = loadedRegistry();
    std::lock_guard<std::mutex> lock(r.mutex);
    const auto [it, inserted] =
        r.entries.emplace(name, Entry{std::move(factory), paperRank});
    (void)it;
    fatalIf(!inserted, "duplicate policy registration: " + name);
}

PolicyFactory
PolicyRegistry::make(const std::string& name)
{
    Registry& r = loadedRegistry();
    std::lock_guard<std::mutex> lock(r.mutex);
    const auto it = r.entries.find(name);
    if (it == r.entries.end())
        fatal(ErrorCode::Config, "unknown policy name: " + name);
    return it->second.factory;
}

bool
PolicyRegistry::contains(const std::string& name)
{
    Registry& r = loadedRegistry();
    std::lock_guard<std::mutex> lock(r.mutex);
    return r.entries.count(name) != 0;
}

std::vector<std::string>
PolicyRegistry::names()
{
    Registry& r = loadedRegistry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<std::string> out;
    out.reserve(r.entries.size());
    for (const auto& [name, entry] : r.entries)
        out.push_back(name);
    return out; // std::map iteration is already sorted
}

PolicyFactory
makeMpppbFactory(const core::MpppbConfig& cfg)
{
    return [cfg](const cache::CacheGeometry& geom, unsigned cores) {
        return std::make_unique<core::MpppbPolicy>(geom, cores, cfg);
    };
}

std::vector<std::string>
paperPolicyNames()
{
    Registry& r = loadedRegistry();
    std::lock_guard<std::mutex> lock(r.mutex);
    std::vector<std::pair<int, std::string>> ranked;
    for (const auto& [name, entry] : r.entries)
        if (entry.paperRank >= 0)
            ranked.emplace_back(entry.paperRank, name);
    std::sort(ranked.begin(), ranked.end());
    std::vector<std::string> out;
    out.reserve(ranked.size());
    for (auto& [rank, name] : ranked)
        out.push_back(std::move(name));
    return out;
}

} // namespace mrp::sim
