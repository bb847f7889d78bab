/**
 * @file
 * Tests for the self-registering policy registry: lookup of built-in
 * names, the unknown-name and duplicate-registration error paths, and
 * that every paper policy constructs a working policy end to end on a
 * tiny trace.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "sim/policies.hpp"
#include "sim/single_core.hpp"
#include "trace/source.hpp"
#include "trace/workloads.hpp"
#include "util/logging.hpp"

namespace mrp::sim {
namespace {

TEST(PolicyRegistryTest, ContainsEveryBuiltinName)
{
    const auto names = PolicyRegistry::names();
    for (const char* expect :
         {"LRU", "Random", "SRRIP", "DRRIP", "MDPP", "SHiP", "SDBP",
          "Perceptron", "Hawkeye", "MPPPB", "MPPPB-MC", "MPPPB-DYN",
          "MPPPB-1A", "MPPPB-1B", "MPPPB-Local", "MPPPB-T2"}) {
        EXPECT_TRUE(PolicyRegistry::contains(expect)) << expect;
        EXPECT_NE(std::find(names.begin(), names.end(), expect),
                  names.end())
            << expect;
    }
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    // MIN is deliberately absent: it needs the two-pass runner.
    EXPECT_FALSE(PolicyRegistry::contains("MIN"));
}

TEST(PolicyRegistryTest, UnknownNameThrows)
{
    EXPECT_THROW(PolicyRegistry::make("NoSuchPolicy"), FatalError);
    EXPECT_FALSE(PolicyRegistry::contains("NoSuchPolicy"));
}

TEST(PolicyRegistryTest, DuplicateRegistrationRejected)
{
    // Re-registering a built-in must throw...
    EXPECT_THROW(PolicyRegistry::registerPolicy(
                     "LRU", PolicyRegistry::make("SRRIP")),
                 FatalError);
    // ...and so must re-registering a fresh name.
    const std::string name = "test-registry-dup";
    PolicyRegistry::registerPolicy(name, PolicyRegistry::make("LRU"));
    EXPECT_TRUE(PolicyRegistry::contains(name));
    EXPECT_THROW(PolicyRegistry::registerPolicy(
                     name, PolicyRegistry::make("LRU")),
                 FatalError);
}

TEST(PolicyRegistryTest, NullFactoryRejected)
{
    EXPECT_THROW(
        PolicyRegistry::registerPolicy("test-null-factory", {}),
        FatalError);
    EXPECT_FALSE(PolicyRegistry::contains("test-null-factory"));
}

TEST(PolicyRegistryTest, RegisteredPolicyIsConstructibleByName)
{
    const std::string name = "test-registry-custom";
    PolicyRegistry::registerPolicy(name,
                                   PolicyRegistry::make("SRRIP"));
    const cache::CacheGeometry g(256 * 1024, 16);
    auto pol = PolicyRegistry::make(name)(g, 1);
    ASSERT_NE(pol, nullptr);
}

TEST(PolicyRegistryTest, PaperPolicyNamesIsARegistryQuery)
{
    const auto names = paperPolicyNames();
    ASSERT_EQ(names.size(), 4u);
    EXPECT_EQ(names[0], "LRU");
    EXPECT_EQ(names[1], "Hawkeye");
    EXPECT_EQ(names[2], "Perceptron");
    EXPECT_EQ(names[3], "MPPPB");
    for (const auto& n : names)
        EXPECT_TRUE(PolicyRegistry::contains(n)) << n;
}

TEST(PolicyRegistryTest, EveryPaperPolicyRunsOnATinyTrace)
{
    const auto tr = trace::makeSuiteTrace(4, 60000); // gups.fit
    // One source serves every policy: the driver rewinds at entry.
    trace::MaterializedTraceSource src(tr);
    for (const auto& name : paperPolicyNames()) {
        const auto r =
            runSingleCore(src, PolicyRegistry::make(name), {});
        EXPECT_GT(r.ipc, 0.0) << name;
        EXPECT_GT(r.instructions, 0u) << name;
        EXPECT_EQ(r.benchmark, tr.name()) << name;
    }
}

} // namespace
} // namespace mrp::sim
