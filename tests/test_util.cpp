/**
 * @file
 * Unit tests for the utility layer: bit manipulation, saturating
 * counters, RNG, history buffer, numeric helpers, and the cost of a
 * passing panicIf/fatalIf check.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <stdexcept>
#include <vector>

#include "util/bitfield.hpp"
#include "util/hash.hpp"
#include "util/history.hpp"
#include "util/logging.hpp"
#include "util/math_util.hpp"
#include "util/parallel_for.hpp"
#include "util/types.hpp"
#include "util/rng.hpp"
#include "util/sat_counter.hpp"

// Counts every allocation in this binary, so a test can require that a
// code path allocates nothing. The deletes stay out of line: inlined
// into a caller, GCC would flag free() on memory from operator new.
namespace {
std::atomic<std::size_t> g_allocations{0};
}

void*
operator new(std::size_t n)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void
operator delete(void* p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}

namespace mrp {
namespace {

TEST(Bitfield, ExtractsInclusiveRanges)
{
    EXPECT_EQ(bits(0xFF, 0, 3), 0xFu);
    EXPECT_EQ(bits(0xF0, 4, 7), 0xFu);
    EXPECT_EQ(bits(0xABCD, 0, 15), 0xABCDu);
    EXPECT_EQ(bits(0x8000000000000000ull, 63, 63), 1u);
}

TEST(Bitfield, SwapsReversedBounds)
{
    // The paper prints pc(9,11,7,16,0) with B > E; ranges normalize.
    EXPECT_EQ(bits(0xF0, 7, 4), 0xFu);
}

TEST(Bitfield, OutOfRangeBitsReadZero)
{
    EXPECT_EQ(bits(0xFFFFFFFFFFFFFFFFull, 64, 70), 0u);
    EXPECT_EQ(bits(0xFFFFFFFFFFFFFFFFull, 60, 100),
              0xFu); // bits 60..63 only
}

TEST(Bitfield, FoldXorReducesWidth)
{
    // 0xAB ^ 0xCD = 0x66
    EXPECT_EQ(foldXor(0xABCD, 8), 0xABu ^ 0xCDu);
    EXPECT_EQ(foldXor(0, 8), 0u);
    EXPECT_EQ(foldXor(0x12345, 0), 0u);
    EXPECT_EQ(foldXor(42, 64), 42u);
}

TEST(Bitfield, FoldXorStaysInWidth)
{
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.next();
        for (unsigned w : {1u, 2u, 5u, 8u, 13u})
            EXPECT_LT(foldXor(v, w), 1ull << w);
    }
}

TEST(Bitfield, Log2CeilAndPow2)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(256), 8u);
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(4096));
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_FALSE(isPowerOfTwo(48));
}

TEST(SatCounterTest, SaturatesAtBounds)
{
    SatCounter c(2, 0);
    EXPECT_EQ(c.maxValue(), 3u);
    c.decrement();
    EXPECT_EQ(c.value(), 0u);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
    EXPECT_TRUE(c.isSet());
    c.decrement();
    EXPECT_EQ(c.value(), 2u);
}

TEST(SatCounterTest, RejectsBadConstruction)
{
    EXPECT_THROW(SatCounter(0, 0), PanicError);
    EXPECT_THROW(SatCounter(2, 9), PanicError);
}

TEST(SignedWeightTest, SixBitRangeMatchesPaper)
{
    SignedWeight w(6, 0);
    EXPECT_EQ(w.minValue(), -32);
    EXPECT_EQ(w.maxValue(), 31);
    for (int i = 0; i < 100; ++i)
        w.increment();
    EXPECT_EQ(w.value(), 31);
    for (int i = 0; i < 200; ++i)
        w.decrement();
    EXPECT_EQ(w.value(), -32);
    w.set(1000);
    EXPECT_EQ(w.value(), 31);
    w.set(-1000);
    EXPECT_EQ(w.value(), -32);
}

TEST(RngTest, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(RngTest, BoundsRespected)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        const auto v = r.range(5, 9);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 9u);
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    EXPECT_THROW(r.below(0), PanicError);
}

TEST(RngTest, UniformCoversRange)
{
    Rng r(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(r.below(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(HistoryTest, MostRecentFirst)
{
    History<int> h(4, -1);
    EXPECT_EQ(h.recent(0), -1); // unwritten slots read the fill value
    h.push(1);
    h.push(2);
    h.push(3);
    EXPECT_EQ(h.recent(0), 3);
    EXPECT_EQ(h.recent(1), 2);
    EXPECT_EQ(h.recent(2), 1);
    h.push(4);
    h.push(5); // evicts 1
    EXPECT_EQ(h.recent(0), 5);
    EXPECT_EQ(h.recent(3), 2);
    EXPECT_THROW(h.recent(4), PanicError);
}

TEST(HistoryTest, EveryDepthCorrectAcrossManyWraps)
{
    // Against the full push log, at every capacity the PC history
    // could plausibly use and across hundreds of ring wraps.
    for (const std::size_t cap : {1u, 2u, 3u, 7u, 17u, 18u, 19u}) {
        History<std::uint64_t> h(cap, 7);
        std::vector<std::uint64_t> log;
        for (std::uint64_t v = 100; v < 100 + 400 * cap; ++v) {
            h.push(v);
            log.push_back(v);
            for (std::size_t i = 0; i < cap; ++i) {
                const std::uint64_t want =
                    i < log.size() ? log[log.size() - 1 - i] : 7;
                ASSERT_EQ(h.recent(i), want) << "cap " << cap << " i " << i;
            }
            ASSERT_THROW(h.recent(cap), PanicError);
        }
    }
}

TEST(Bitfield, Fold8MatchesFoldXor)
{
    Rng rng(5);
    EXPECT_EQ(fold8(0), 0u);
    EXPECT_EQ(fold8(~std::uint64_t{0}), foldXor(~std::uint64_t{0}, 8));
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t v = rng.next() >> rng.below(64);
        ASSERT_EQ(fold8(v), foldXor(v, 8)) << v;
    }
}

TEST(MathUtil, GeomeanAndMean)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_THROW(geomean({}), FatalError);
    EXPECT_THROW(geomean({0.0}), FatalError);
    EXPECT_THROW(mean({}), FatalError);
}

TEST(HashTest, MixIsDeterministicAndSpreads)
{
    EXPECT_EQ(mix64(123), mix64(123));
    std::set<std::uint32_t> idx;
    for (std::uint64_t i = 0; i < 4096; ++i)
        idx.insert(hashToIndex(i, 256));
    EXPECT_EQ(idx.size(), 256u);
    EXPECT_EQ(hashToIndex(99, 1), 0u);
}

TEST(HashTest, SkewedHashesAreIndependent)
{
    int collisions = 0;
    for (std::uint64_t pc = 0; pc < 1000; ++pc)
        if (skewedHash(pc, 0) % 4096 == skewedHash(pc, 1) % 4096)
            ++collisions;
    EXPECT_LT(collisions, 10);
}

TEST(LoggingTest, PassingChecksDoNotAllocate)
{
    // Longer than the small-string buffer: building the message as a
    // std::string would allocate.
    const char* msg = "a message longer than fifteen chars";
    volatile bool fail = false;
    const std::size_t before = g_allocations.load();
    panicIf(fail, "a message longer than fifteen chars");
    panicIf(fail, msg);
    fatalIf(fail, msg);
    fatalIf(fail, ErrorCode::Config, msg);
    EXPECT_EQ(g_allocations.load() - before, 0u);

    EXPECT_THROW(panicIf(true, msg), PanicError);
    try {
        fatalIf(true, ErrorCode::Io, msg);
        ADD_FAILURE() << "fatalIf(true) returned";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::Io);
        EXPECT_STREQ(e.what(),
                     "fatal: a message longer than fifteen chars");
    }
}

TEST(ParallelForTest, RunsEveryIndexOnceAtAnyWorkerCount)
{
    for (const unsigned jobs : {0u, 1u, 3u, 16u}) {
        std::vector<std::atomic<int>> hits(37);
        parallelFor(hits.size(), jobs, [&](std::size_t i) { ++hits[i]; });
        for (const auto& h : hits)
            EXPECT_EQ(h.load(), 1) << "jobs " << jobs;
    }
    parallelFor(0, 4, [](std::size_t) { FAIL() << "no indices to run"; });
}

TEST(ParallelForTest, RethrowsTheFirstExceptionAfterJoin)
{
    const auto failAt5 = [](std::atomic<int>& ran) {
        return [&ran](std::size_t i) {
            ++ran;
            if (i == 5)
                throw std::runtime_error("boom");
        };
    };
    std::atomic<int> ran{0};
    EXPECT_THROW(parallelFor(100, 4, failAt5(ran)), std::runtime_error);
    // Inline, nothing is handed out after the failure.
    ran = 0;
    EXPECT_THROW(parallelFor(100, 1, failAt5(ran)), std::runtime_error);
    EXPECT_EQ(ran.load(), 6);
}

TEST(Types, BlockArithmetic)
{
    EXPECT_EQ(blockAddr(0), 0u);
    EXPECT_EQ(blockAddr(63), 0u);
    EXPECT_EQ(blockAddr(64), 1u);
    EXPECT_EQ(blockOffset(0x1234), 0x34u & 63u);
    EXPECT_EQ(kBlockBytes, 64u);
}

} // namespace
} // namespace mrp
