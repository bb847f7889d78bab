/**
 * @file
 * Tests for the deterministic fault-injection facility: arming
 * windows (firstHit/maxFires), typed failure behavior per Kind,
 * deterministic byte corruption, and counter bookkeeping.
 */

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstring>
#include <new>

#include "util/fault_injection.hpp"
#include "util/logging.hpp"

namespace mrp::fault {
namespace {

class FaultInjectionTest : public ::testing::Test
{
  protected:
    void TearDown() override { disarmAll(); }
};

/** Code carried by the FatalError @p fn throws; None if it doesn't. */
template <typename Fn>
ErrorCode
codeOf(Fn&& fn)
{
    try {
        fn();
    } catch (const FatalError& e) {
        return e.code();
    }
    return ErrorCode::None;
}

TEST_F(FaultInjectionTest, UnarmedSitesAreNoOps)
{
    EXPECT_FALSE(anyArmed());
    EXPECT_NO_THROW(checkIo("nowhere", "nothing"));
    EXPECT_NO_THROW(checkAlloc("nowhere"));
    EXPECT_NO_THROW(checkStall("nowhere"));
    std::array<char, 8> buf = {};
    EXPECT_NO_THROW(checkCorrupt("nowhere", buf.data(), buf.size()));
    for (const char c : buf)
        EXPECT_EQ(c, 0);
    EXPECT_EQ(hits("nowhere"), 0u);
}

TEST_F(FaultInjectionTest, IoFaultThrowsTypedErrorOnce)
{
    arm("t.io", Spec{});
    EXPECT_TRUE(anyArmed());
    EXPECT_EQ(codeOf([] { checkIo("t.io", "op"); }), ErrorCode::Io);
    EXPECT_EQ(fires("t.io"), 1u);
    // Default maxFires = 1: the retry succeeds.
    EXPECT_NO_THROW(checkIo("t.io", "op"));
    EXPECT_EQ(hits("t.io"), 2u);
    EXPECT_EQ(fires("t.io"), 1u);
}

TEST_F(FaultInjectionTest, FirstHitDelaysFiring)
{
    Spec spec;
    spec.firstHit = 3;
    arm("t.late", spec);
    EXPECT_NO_THROW(checkIo("t.late", "op"));
    EXPECT_NO_THROW(checkIo("t.late", "op"));
    EXPECT_THROW(checkIo("t.late", "op"), FatalError);
    EXPECT_EQ(hits("t.late"), 3u);
    EXPECT_EQ(fires("t.late"), 1u);
}

TEST_F(FaultInjectionTest, SpecTextParsesNumbersStrictly)
{
    armFromSpec("t.spec:io:2:-1");
    EXPECT_NO_THROW(checkIo("t.spec", "op"));
    EXPECT_THROW(checkIo("t.spec", "op"), FatalError);
    EXPECT_THROW(checkIo("t.spec", "op"), FatalError);
    // A malformed number is a config error, not a silent 0 or a wrap.
    for (const char* bad : {"t.bad:io:x", "t.bad:io:-1", "t.bad:io:1:2x",
                            "t.bad:stall:1:1:-5", "t.bad:io: 3"})
        EXPECT_EQ(codeOf([&] { armFromSpec(bad); }), ErrorCode::Config)
            << bad;
    EXPECT_EQ(hits("t.bad"), 0u);
}

TEST_F(FaultInjectionTest, UnlimitedFiresKeepFiring)
{
    Spec spec;
    spec.maxFires = -1;
    arm("t.forever", spec);
    for (int i = 0; i < 3; ++i)
        EXPECT_THROW(checkIo("t.forever", "op"), FatalError);
    EXPECT_EQ(fires("t.forever"), 3u);
}

TEST_F(FaultInjectionTest, HugeFirstHitCountsWithoutFiring)
{
    Spec spec;
    spec.firstHit = 1000000000;
    arm("t.counter", spec);
    for (int i = 0; i < 5; ++i)
        EXPECT_NO_THROW(checkIo("t.counter", "op"));
    EXPECT_EQ(hits("t.counter"), 5u);
    EXPECT_EQ(fires("t.counter"), 0u);
}

TEST_F(FaultInjectionTest, AllocFaultThrowsBadAlloc)
{
    Spec spec;
    spec.kind = Kind::AllocFail;
    arm("t.alloc", spec);
    EXPECT_THROW(checkAlloc("t.alloc"), std::bad_alloc);
}

TEST_F(FaultInjectionTest, KindMismatchDoesNotFire)
{
    arm("t.kind", Spec{}); // IoError
    EXPECT_NO_THROW(checkAlloc("t.kind"));
    EXPECT_NO_THROW(checkStall("t.kind"));
    EXPECT_EQ(fires("t.kind"), 0u);
}

TEST_F(FaultInjectionTest, CorruptFlipsExactlyOneBitDeterministically)
{
    const auto flippedBit = [](std::uint64_t seed) {
        Spec spec;
        spec.kind = Kind::CorruptByte;
        spec.seed = seed;
        arm("t.corrupt", spec);
        std::array<unsigned char, 64> buf = {};
        checkCorrupt("t.corrupt", buf.data(), buf.size());
        disarm("t.corrupt");
        int flipped = -1;
        int bits = 0;
        for (std::size_t i = 0; i < buf.size(); ++i)
            for (unsigned b = 0; b < 8; ++b)
                if (buf[i] & (1u << b)) {
                    ++bits;
                    flipped = static_cast<int>(i * 8 + b);
                }
        EXPECT_EQ(bits, 1);
        return flipped;
    };
    const int first = flippedBit(7);
    EXPECT_EQ(first, flippedBit(7)); // same seed, same flip
    // Distinct seeds eventually pick a different position.
    bool differs = false;
    for (std::uint64_t s = 8; s < 16 && !differs; ++s)
        differs = flippedBit(s) != first;
    EXPECT_TRUE(differs);
}

TEST_F(FaultInjectionTest, StallSleepsForConfiguredDuration)
{
    Spec spec;
    spec.kind = Kind::Stall;
    spec.stallMillis = 30;
    arm("t.stall", spec);
    const auto start = std::chrono::steady_clock::now();
    checkStall("t.stall");
    const auto elapsed =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_GE(elapsed, 25.0);
}

TEST_F(FaultInjectionTest, ScopedArmsAndDisarms)
{
    {
        Scoped f("t.scoped", Spec{});
        EXPECT_TRUE(anyArmed());
        EXPECT_THROW(checkIo("t.scoped", "op"), FatalError);
    }
    EXPECT_FALSE(anyArmed());
    EXPECT_NO_THROW(checkIo("t.scoped", "op"));
}

TEST_F(FaultInjectionTest, RearmingResetsCounters)
{
    arm("t.rearm", Spec{});
    EXPECT_THROW(checkIo("t.rearm", "op"), FatalError);
    EXPECT_EQ(hits("t.rearm"), 1u);
    arm("t.rearm", Spec{});
    EXPECT_EQ(hits("t.rearm"), 0u);
    EXPECT_THROW(checkIo("t.rearm", "op"), FatalError);
}

} // namespace
} // namespace mrp::fault
