/**
 * @file
 * Tests for the one JSON reader and the strict number parser behind
 * it: exact 64-bit integer accessors, the nesting bound, strict CLI
 * flag parsing, and the exactness of every u64 that crosses a codec
 * pair (queue requests, trace specs, journal / RESULT lines) at the
 * values a double cannot hold: 2^53 + 1 and 2^64 - 1.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "queue/wire.hpp"
#include "runner/checkpoint.hpp"
#include "runner/run_request.hpp"
#include "trace/spec.hpp"
#include "util/json_reader.hpp"
#include "util/logging.hpp"
#include "util/parse_number.hpp"

namespace mrp {
namespace {

constexpr std::uint64_t kTwo53Plus1 = (std::uint64_t{1} << 53) + 1;
constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

template <typename F>
ErrorCode
codeOf(F&& f)
{
    try {
        f();
    } catch (const FatalError& e) {
        return e.code();
    }
    return ErrorCode::None;
}

// --- strict decimal parser -------------------------------------------

TEST(ParseNumber, U64IsDigitsOnlyAndRejectsOverflow)
{
    EXPECT_EQ(parseU64("0"), 0u);
    EXPECT_EQ(parseU64("9007199254740993"), kTwo53Plus1);
    EXPECT_EQ(parseU64("18446744073709551615"), kU64Max);
    EXPECT_FALSE(parseU64("18446744073709551616"));
    EXPECT_FALSE(parseU64("99999999999999999999"));
    for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1.0", "1e3",
                            "0x10", "12a"})
        EXPECT_FALSE(parseU64(bad)) << bad;
}

TEST(ParseNumber, I64TakesOneLeadingMinus)
{
    EXPECT_EQ(parseI64("-9223372036854775808"),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(parseI64("9223372036854775807"),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(parseI64("-0"), 0);
    EXPECT_EQ(parseI64("-17"), -17);
    for (const char* bad : {"-", "--1", "+5", "-9223372036854775809",
                            "9223372036854775808", "-1.5"})
        EXPECT_FALSE(parseI64(bad)) << bad;
}

TEST(ParseNumber, NarrowIntegersAreRangeChecked)
{
    EXPECT_EQ(parseInteger<std::uint32_t>("4294967295"), 4294967295u);
    EXPECT_FALSE(parseInteger<std::uint32_t>("4294967296"));
    EXPECT_EQ(parseInteger<int>("-2147483648"), -2147483647 - 1);
    EXPECT_FALSE(parseInteger<int>("2147483648"));
}

TEST(ParseNumber, DoubleConsumesTheWholeString)
{
    EXPECT_EQ(parseDouble("0.25"), 0.25);
    EXPECT_EQ(parseDouble("-1e3"), -1000.0);
    for (const char* bad : {"", "abc", " 1", "1x", "0.5 "})
        EXPECT_FALSE(parseDouble(bad)) << bad;
}

TEST(ParseNumber, FlagParsersFailAsConfigErrors)
{
    EXPECT_EQ(flagInteger<std::uint64_t>("--insts", "300000"), 300000u);
    EXPECT_EQ(codeOf([] { flagInteger<std::uint64_t>("--insts", "-5"); }),
              ErrorCode::Config);
    EXPECT_EQ(codeOf([] { flagInteger<unsigned>("--jobs", "4294967296"); }),
              ErrorCode::Config);
    EXPECT_EQ(codeOf([] { flagDouble("--warmup", "abc"); }),
              ErrorCode::Config);
    try {
        flagInteger<std::uint64_t>("--budget-insts", "100000abc");
        FAIL() << "trailing garbage accepted";
    } catch (const FatalError& e) {
        EXPECT_NE(std::string(e.what()).find("--budget-insts"),
                  std::string::npos);
    }
}

TEST(ParseNumber, KibFlagsRejectByteCountOverflow)
{
    EXPECT_EQ(flagKib<std::uint64_t>("--llc-kb", "2048"), 2048u * 1024);
    // The largest KiB count whose byte count fits, and one past it,
    // whose byte count would wrap to 0.
    EXPECT_EQ(flagKib<std::uint64_t>("--llc-kb", "18014398509481983"),
              18014398509481983ull * 1024);
    EXPECT_EQ(
        codeOf([] { flagKib<std::uint64_t>("--llc-kb", "18014398509481984"); }),
        ErrorCode::Config);
    EXPECT_EQ(codeOf([] { flagKib<unsigned>("--llc-kb", "4194304"); }),
              ErrorCode::Config);
    EXPECT_EQ(codeOf([] { flagKib<std::uint64_t>("--llc-kb", "-1"); }),
              ErrorCode::Config);
}

// --- exact integers in the reader -------------------------------------

TEST(JsonReader, IntegerLiteralsAreExact)
{
    const auto v = json::parseJson(
        "[9007199254740993, 18446744073709551615, -9223372036854775808, "
        "-1, 0, -0]",
        "ints");
    EXPECT_EQ(v.array[0].asU64(), kTwo53Plus1);
    EXPECT_EQ(v.array[1].asU64(), kU64Max);
    EXPECT_EQ(v.array[2].asI64(), std::numeric_limits<std::int64_t>::min());
    EXPECT_EQ(v.array[3].asI64(), -1);
    EXPECT_EQ(v.array[3].asInt(), -1);
    EXPECT_EQ(v.array[4].asU64(), 0u);
    EXPECT_EQ(v.array[5].asU64(), 0u);
    // The double view stays available for every number.
    EXPECT_EQ(v.array[0].number, 9007199254740992.0);
}

TEST(JsonReader, NonIntegersNeverReachACast)
{
    const auto v = json::parseJson(
        "[1.5, 1e3, -1, 18446744073709551616, 2147483648, \"7\", "
        "9223372036854775808]",
        "bad");
    const auto corrupt = [](auto&& f) {
        return codeOf(f) == ErrorCode::CorruptInput;
    };
    EXPECT_TRUE(corrupt([&] { v.array[0].asU64(); })); // fraction
    EXPECT_TRUE(corrupt([&] { v.array[1].asU64(); })); // exponent form
    EXPECT_TRUE(corrupt([&] { v.array[2].asU64(); })); // negative
    EXPECT_TRUE(corrupt([&] { v.array[3].asU64(); })); // >= 2^64
    EXPECT_TRUE(corrupt([&] { v.array[4].asInt(); })); // > INT_MAX
    EXPECT_TRUE(corrupt([&] { v.array[5].asU64(); })); // a string
    EXPECT_TRUE(corrupt([&] { v.array[6].asI64(); })); // > INT64_MAX
    EXPECT_TRUE(corrupt([&] { v.array[5].asReal(); }));
    EXPECT_EQ(v.array[6].asU64(), std::uint64_t{1} << 63);
    EXPECT_EQ(v.array[4].asInteger<std::uint32_t>(), 2147483648u);
    EXPECT_EQ(v.array[0].asReal(), 1.5);
}

TEST(JsonReader, TypedMembersNameTheMember)
{
    const auto v =
        json::parseJson("{\"n\": 4.5, \"s\": \"x\", \"b\": true}", "doc");
    EXPECT_EQ(v.real("n", "doc"), 4.5);
    EXPECT_EQ(v.str("s", "doc"), "x");
    EXPECT_TRUE(v.flag("b", "doc"));
    try {
        v.integer("n", "doc");
        FAIL() << "fraction accepted";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::CorruptInput);
        EXPECT_NE(std::string(e.what()).find("doc: member \"n\""),
                  std::string::npos)
            << e.what();
    }
    EXPECT_EQ(codeOf([&] { v.integer("missing", "doc"); }),
              ErrorCode::CorruptInput);
    EXPECT_EQ(codeOf([&] { v.str("n", "doc"); }), ErrorCode::CorruptInput);
}

// --- nesting bound ----------------------------------------------------

TEST(JsonReader, NestingAtTheLimitParses)
{
    const std::string doc = std::string(json::kMaxDepth, '[') +
                            std::string(json::kMaxDepth, ']');
    json::Value v;
    EXPECT_TRUE(json::tryParseJson(doc, &v));
}

TEST(JsonReader, NestingPastTheLimitIsCorruptInput)
{
    const std::string arrays = std::string(json::kMaxDepth + 1, '[') +
                               std::string(json::kMaxDepth + 1, ']');
    std::string objects;
    for (std::size_t i = 0; i <= json::kMaxDepth; ++i)
        objects += "{\"a\": ";
    objects += "0" + std::string(json::kMaxDepth + 1, '}');
    for (const auto& doc : {arrays, objects}) {
        json::Value v;
        EXPECT_FALSE(json::tryParseJson(doc, &v));
        try {
            json::parseJson(doc, "deep");
            FAIL() << "over-deep document accepted";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::CorruptInput);
            EXPECT_NE(std::string(e.what()).find("nested deeper"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(JsonReader, TenMillionOpenBracketsFailWithoutExhaustingTheStack)
{
    const std::string doc(10'000'000, '[');
    json::Value v;
    EXPECT_FALSE(json::tryParseJson(doc, &v));
    EXPECT_EQ(codeOf([&] { json::parseJson(doc, "brackets"); }),
              ErrorCode::CorruptInput);
}

// --- u64 exactness across every codec pair ----------------------------

trace::TraceSpec
zipfSpec(std::uint64_t seed)
{
    trace::ZipfParams p;
    p.instructions = 50000;
    p.seed = seed;
    return trace::TraceSpec::zipf(p);
}

trace::TraceSpec
blkioSpec(std::uint64_t seed)
{
    trace::BlockIoParams p;
    p.instructions = 50000;
    p.seed = seed;
    return trace::TraceSpec::blockIo(p);
}

class ExactSeed : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ExactSeed, TraceSpecRoundTripsSeed)
{
    const std::uint64_t seed = GetParam();
    const std::string want = std::to_string(seed);
    for (const auto& spec :
         {zipfSpec(seed), blkioSpec(seed),
          trace::TraceSpec::suite(3, 40000, seed)}) {
        const std::string doc = spec.toJson();
        ASSERT_NE(doc.find("\"seed\": " + want), std::string::npos) << doc;
        const auto back = trace::TraceSpec::fromJson(
            json::parseJson(doc, "spec"), "spec");
        EXPECT_EQ(back.toJson(), doc);
    }
}

TEST_P(ExactSeed, RequestRoundTripsDriverAndSourceSeeds)
{
    const std::uint64_t seed = GetParam();
    sim::SingleCoreConfig cfg;
    cfg.seed = seed;
    for (const auto& src : {zipfSpec(seed), blkioSpec(seed)}) {
        const auto req = runner::RunRequest::singleCore(
            src, runner::PolicySpec::byName("LRU"), cfg);
        const std::string doc = queue::requestJson(req);
        const auto back = queue::requestFromJson(doc, "request");
        EXPECT_EQ(std::get<sim::SingleCoreConfig>(back.config).seed, seed);
        ASSERT_EQ(back.sources.size(), 1u);
        EXPECT_EQ(back.sources[0].toJson(), src.toJson());
        EXPECT_EQ(queue::requestJson(back), doc);
    }
}

TEST_P(ExactSeed, ResultRoundTripsSeedAndTenantCounts)
{
    runner::RunResult r;
    r.index = 2;
    r.benchmark = "a+b";
    r.policy = "LRU";
    r.multiCore = true;
    r.coreIpc = {0.5, 0.75};
    r.seed = GetParam();
    r.tenants.resize(2);
    r.tenants[0] = {10, 6, kTwo53Plus1, kU64Max, 1.25, 0.0};
    r.tenants[1] = {6, 10, kU64Max, kTwo53Plus1, 2.5, 3.0};
    const std::string doc = runner::resultJson(r);
    const auto back = runner::resultFromJson(doc);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(back->seed, GetParam());
    EXPECT_EQ(back->tenants[0].demandMisses, kTwo53Plus1);
    EXPECT_EQ(back->tenants[0].instructions, kU64Max);
    EXPECT_EQ(back->tenants[1].demandMisses, kU64Max);
    EXPECT_EQ(back->tenants[1].instructions, kTwo53Plus1);
    EXPECT_EQ(runner::resultJson(*back), doc);
}

INSTANTIATE_TEST_SUITE_P(AboveTwo53, ExactSeed,
                         ::testing::Values(kTwo53Plus1, kU64Max));

TEST(RequestSchema, MalformedFeatureParametersAreTypedErrors)
{
    core::MpppbConfig mc;
    mc.predictor.features = {core::FeatureSpec::parse("bias(16,0)")};
    const std::string doc = queue::requestJson(
        runner::RunRequest::singleCore(trace::TraceSpec::suite(3, 40000),
                                       runner::PolicySpec::mpppb(mc)));
    ASSERT_NE(doc.find("bias(16,0)"), std::string::npos);
    for (const char* bad : {"bias(1x,0)", "bias(,0)", "bias(-1,0)",
                            "bias(99999999999,0)"}) {
        std::string edited = doc;
        edited.replace(edited.find("bias(16,0)"), 10, bad);
        EXPECT_NE(codeOf([&] { queue::requestFromJson(edited, "req"); }),
                  ErrorCode::None)
            << bad;
    }
}

// --- the journal / RESULT schema --------------------------------------

std::string
sampleResultJson()
{
    runner::RunResult r;
    r.index = 1;
    r.benchmark = "scan.a";
    r.policy = "LRU";
    r.label = "x";
    r.ipc = 0.5;
    r.mpki = 12.25;
    r.instructions = 1000;
    return runner::resultJson(r);
}

/** @p doc with the first occurrence of @p from replaced by @p to. */
std::string
edited(std::string doc, const std::string& from, const std::string& to)
{
    const auto at = doc.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return doc.replace(at, from.size(), to);
}

TEST(ResultSchema, UnknownMembersAreIgnored)
{
    const std::string doc = sampleResultJson();
    const auto back = runner::resultFromJson(
        edited(doc, "{", "{\"future\": {\"nested\": [1, \"a\"]}, "));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(runner::resultJson(*back), doc);
}

TEST(ResultSchema, MissingOrMistypedMembersAreRejected)
{
    const std::string doc = sampleResultJson();
    for (const auto& [from, to] :
         std::initializer_list<std::pair<std::string, std::string>>{
             {"\"index\": 1, ", ""},
             {"\"index\": 1", "\"index\": 1.5"},
             {"\"index\": 1", "\"index\": -1"},
             {"\"index\": 1", "\"index\": \"1\""},
             {"\"mode\": \"single\"", "\"mode\": \"quad\""},
             {"\"ipc\": 0.5", "\"ipc\": null"},
             {"\"instructions\": 1000",
              "\"instructions\": 18446744073709551616"},
             {"\"llcBypasses\": 0", "\"llcBypasses\": 0.5"},
             {"}", ", \"seed\": 1e3}"},
             {"}", ", \"coreIpc\": [0.5, \"x\"]}"},
             {"}", ", \"tenantWaysInitial\": [1, 2]}"},
             {"}", ", \"error\": 5}"},
         }) {
        EXPECT_FALSE(runner::resultFromJson(edited(doc, from, to)))
            << from << " -> " << to;
    }
    EXPECT_FALSE(runner::resultFromJson("[]"));
    EXPECT_FALSE(runner::resultFromJson(doc + "x"));
}

TEST(ResultSchema, TenantColumnsMustAgreeInLength)
{
    runner::RunResult r;
    r.tenants.resize(2);
    r.qosSchedule = {{4, 1, 0}};
    const std::string doc = runner::resultJson(r);
    ASSERT_TRUE(runner::resultFromJson(doc));
    EXPECT_FALSE(runner::resultFromJson(
        edited(doc, "\"tenantWaysFinal\": [0, 0]",
               "\"tenantWaysFinal\": [0]")));
    EXPECT_FALSE(runner::resultFromJson(
        edited(doc, "\"qosTo\": [0]", "\"qosTo\": [0, 1]")));
    EXPECT_FALSE(runner::resultFromJson(
        edited(doc, "\"qosFrom\": [1]", "\"qosFrom\": [4294967296]")));
}

} // namespace
} // namespace mrp
