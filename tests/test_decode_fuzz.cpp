/**
 * @file
 * Seeded mutation fuzzing of every decoder of untrusted bytes: the
 * ones riding on the JSON reader or the queue line protocol
 * (json::parseJson, resultFromJson and loadJournal, requestFromJson,
 * the protocol line parsers, TraceSpec::fromJson and the OBS payload
 * decoder) and the v3 chunked trace-file reader (FileTraceSource).
 *
 * Each target starts from real documents written by the matching
 * encoder and decodes a fixed-seed stream of mutants (bit flips,
 * inserted JSON-significant or random bytes, deletions, truncations,
 * duplicated spans). The property: nothing crashes (the sanitize
 * label runs this under ASan+UBSan), and every failure is a
 * FatalError carrying a typed code, or a nullopt from the decoders
 * that report failure that way. Iteration counts are fixed: each
 * target takes about a second or less even under ASan+UBSan.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "obs/payload.hpp"
#include "queue/wire.hpp"
#include "runner/checkpoint.hpp"
#include "runner/run_request.hpp"
#include "trace/spec.hpp"
#include "trace/stream_reader.hpp"
#include "trace/workloads.hpp"
#include "util/json_reader.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace mrp {
namespace {

constexpr int kIterations = 10000;

/** Byte-level mutator with a fixed seed. */
class Mutator
{
  public:
    explicit Mutator(std::uint64_t seed) : rng_(seed) {}

    std::string
    mutate(std::string s)
    {
        const unsigned edits = 1 + static_cast<unsigned>(rng_.below(4));
        for (unsigned e = 0; e < edits; ++e)
            edit(s);
        return s;
    }

  private:
    void
    edit(std::string& s)
    {
        static const std::string kBytes = "{}[]\",:.-+eE0123456789 \\un";
        const auto pos = [&] {
            return s.empty() ? 0 : static_cast<std::size_t>(
                                       rng_.below(s.size() + 1));
        };
        switch (rng_.below(6)) {
        case 0: // flip one bit
            if (!s.empty()) {
                const std::size_t i = rng_.below(s.size());
                s[i] = static_cast<char>(s[i] ^ (1u << rng_.below(8)));
            }
            break;
        case 1: // insert a JSON-significant byte
            s.insert(pos(), 1, kBytes[rng_.below(kBytes.size())]);
            break;
        case 2: // insert a random byte
            s.insert(pos(), 1, static_cast<char>(rng_.below(256)));
            break;
        case 3: // delete a short run
            if (!s.empty()) {
                const std::size_t at = rng_.below(s.size());
                s.erase(at, 1 + rng_.below(8));
            }
            break;
        case 4: // truncate
            s.resize(pos());
            break;
        default: { // duplicate a span elsewhere
            if (s.empty())
                break;
            const std::size_t at = rng_.below(s.size());
            const std::size_t len = 1 + rng_.below(16);
            s.insert(pos(), s.substr(at, len));
            break;
        }
        }
    }

    Rng rng_;
};

/**
 * Decode kIterations mutants of @p seeds with @p decode. A FatalError
 * must carry a typed code; anything else that escapes (another
 * exception type, a sanitizer report, a crash) fails the test.
 * Returns how many mutants decoded without error, so callers can
 * check the corpus still reaches the decoder's success path.
 */
int
fuzz(const std::vector<std::string>& seeds, std::uint64_t seed,
     const std::function<void(const std::string&)>& decode)
{
    Mutator m(seed);
    int accepted = 0;
    for (const auto& s : seeds)
        decode(s); // the unmutated corpus must decode
    for (int i = 0; i < kIterations; ++i) {
        const std::string input = m.mutate(seeds[i % seeds.size()]);
        try {
            decode(input);
            ++accepted;
        } catch (const FatalError& e) {
            EXPECT_NE(e.code(), ErrorCode::None) << input;
            EXPECT_NE(e.code(), ErrorCode::Internal)
                << e.what() << "\n  input: " << input;
        }
    }
    return accepted;
}

// --- real documents ---------------------------------------------------

std::vector<std::string>
traceSpecDocs()
{
    trace::ZipfParams zp;
    zp.instructions = 20000;
    zp.seed = 9007199254740993ull;
    trace::BlockIoParams bp;
    bp.instructions = 20000;
    std::vector<trace::TraceSpec> kids;
    kids.push_back(trace::TraceSpec::zipf(zp));
    kids.push_back(trace::TraceSpec::blockIo(bp));
    const auto mix =
        trace::TraceSpec::phaseMix("phase", 20000, 2500, std::move(kids));
    return {
        trace::TraceSpec::suite(3, 40000, 7).toJson(),
        trace::TraceSpec::heldOut(1, 40000).toJson(),
        trace::TraceSpec::zipf(zp).toJson(),
        trace::TraceSpec::blockIo(bp).toJson(),
        mix.toJson(),
        trace::TraceSpec::sampled(mix, 3).toJson(),
    };
}

std::vector<std::string>
requestDocs()
{
    sim::SingleCoreConfig single;
    single.seed = 18446744073709551615ull;
    single.hierarchy.llcBytes = 128 * 1024;
    sim::MultiCoreConfig multi;
    multi.measureCycles = 50000;
    multi.tenancy.tenants.resize(2);
    multi.tenancy.tenants[0].ways = 10;
    multi.tenancy.tenants[1].ways = 6;
    multi.tenancy.tenants[1].sloMpki = 2.5;
    multi.tenancy.qos.enabled = true;
    core::MpppbConfig mc = core::singleThreadMpppbConfig();
    mc.thresholds.tauBypass = -7;
    trace::ZipfParams zp;
    zp.instructions = 20000;
    std::vector<trace::TraceSpec> mix = {trace::TraceSpec::suite(1, 30000),
                                         trace::TraceSpec::suite(2, 30000)};
    return {
        queue::requestJson(runner::RunRequest::singleCore(
            trace::TraceSpec::suite(3, 40000),
            runner::PolicySpec::byName("LRU"), single)),
        queue::requestJson(runner::RunRequest::singleCore(
            trace::TraceSpec::zipf(zp), runner::PolicySpec::mpppb(mc),
            single)),
        queue::requestJson(runner::RunRequest::multiCore(
            std::move(mix), runner::PolicySpec::byName("LRU"), multi)),
    };
}

std::vector<std::string>
resultDocs()
{
    runner::RunResult ok;
    ok.index = 4;
    ok.benchmark = "scan.a";
    ok.policy = "MPPPB";
    ok.label = "l\"q";
    ok.ipc = 0.8125;
    ok.mpki = 12.5;
    ok.instructions = 300000;
    ok.llcDemandAccesses = 9000;
    ok.llcDemandMisses = 4500;
    ok.seed = 9007199254740993ull;
    runner::RunResult mix = ok;
    mix.multiCore = true;
    mix.coreIpc = {0.5, 1.25};
    mix.tenants = {{10, 12, 777, 123456, 6.25, 2.5},
                   {6, 4, 9999, 123000, 81.5, 0.0}};
    mix.qosSchedule = {{4, 1, 0}, {9, 1, 0}};
    runner::RunResult failed;
    failed.index = 1;
    failed.policy = "NoSuch";
    failed.error = "fatal: unknown policy";
    failed.errorCode = ErrorCode::Config;
    return {runner::resultJson(ok), runner::resultJson(mix),
            runner::resultJson(failed)};
}

std::vector<std::string>
obsDocs()
{
    obs::WorkerRunObs o;
    o.label = "run-1";
    o.wallSeconds = 0.125;
    o.accesses = 4096;
    telemetry::Snapshot s;
    telemetry::MetricSnapshot c;
    c.name = "llc.demand_hits";
    c.counter = 42;
    telemetry::MetricSnapshot h;
    h.name = "llc.reuse_distance";
    h.kind = telemetry::MetricSnapshot::Kind::Histogram;
    h.histogram = {{1, 2, 4}, {3, 0, 5}, 2, 10, -37};
    telemetry::MetricSnapshot g;
    g.name = "mpppb.confidence";
    g.kind = telemetry::MetricSnapshot::Kind::Gauge;
    g.gauge = 0.625;
    s.metrics = {c, h, g};
    o.metrics = s;
    prof::PhaseStat root{"run", 1, 0.5, 0.25, {}};
    root.children.push_back({"llc.access", 4096, 0.25, 0.25, {}});
    o.phases = root;
    obs::WorkerRunObs truncated;
    truncated.label = "run-2";
    truncated.truncated = true;
    return {obs::workerObsJson(o), obs::workerObsJson(truncated)};
}

// --- targets ----------------------------------------------------------

TEST(DecodeFuzz, JsonReader)
{
    std::vector<std::string> seeds = traceSpecDocs();
    for (const auto& v : {requestDocs(), resultDocs(), obsDocs()})
        seeds.insert(seeds.end(), v.begin(), v.end());
    const int ok = fuzz(seeds, 1, [](const std::string& s) {
        const auto v = json::parseJson(s, "fuzz");
        json::Value w;
        ASSERT_TRUE(json::tryParseJson(s, &w));
    });
    EXPECT_GT(ok, 0);
}

TEST(DecodeFuzz, ResultFromJsonReportsFailureAsNullopt)
{
    int decoded = 0;
    fuzz(resultDocs(), 2, [&](const std::string& s) {
        // resultFromJson never throws: any mismatch is nullopt.
        if (runner::resultFromJson(s))
            ++decoded;
    });
    EXPECT_GT(decoded, 0);
}

TEST(DecodeFuzz, LoadJournal)
{
    const std::string path = "/tmp/mrp_decode_fuzz_journal.jsonl";
    std::string clean;
    for (const auto& doc : resultDocs())
        clean += journal::frameLine(doc);
    Mutator m(3);
    int loaded = 0;
    for (int i = 0; i < kIterations / 10; ++i) {
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os << (i == 0 ? clean : m.mutate(clean));
        }
        try {
            runner::loadJournal(path);
            ++loaded;
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::CorruptInput) << e.what();
        }
    }
    std::remove(path.c_str());
    EXPECT_GT(loaded, 0);
}

TEST(DecodeFuzz, RequestFromJson)
{
    const int ok = fuzz(requestDocs(), 4, [](const std::string& s) {
        queue::requestFromJson(s, "fuzz request");
    });
    EXPECT_GT(ok, 0);
}

TEST(DecodeFuzz, ProtocolLines)
{
    const obs::SpanContext ctx{0x1122334455667788ull, 0x99aabbccddeeff00ull};
    const std::string payload = resultDocs()[0];
    const std::vector<std::string> lines = {
        queue::helloLine(4242),
        queue::heartbeatLine(7, ctx.spanId, 19),
        queue::jobLine(3, ctx, requestDocs()[0]),
        queue::resultLine(9, ctx.spanId, payload),
        queue::obsLine(5, ctx.spanId, obsDocs()[0]),
    };
    int parsed = 0;
    fuzz(lines, 5, [&](const std::string& s) {
        // The line parsers never throw: a bad line is nullopt.
        parsed += queue::parseHello(s).has_value() +
                  queue::parseHeartbeat(s).has_value() +
                  queue::parseJob(s).has_value() +
                  queue::parseResult(s).has_value() +
                  queue::parseObs(s).has_value();
    });
    EXPECT_GT(parsed, 0);
}

TEST(DecodeFuzz, TraceSpecFromJson)
{
    const int ok = fuzz(traceSpecDocs(), 6, [](const std::string& s) {
        trace::TraceSpec::fromJson(json::parseJson(s, "fuzz spec"),
                                   "fuzz spec");
    });
    EXPECT_GT(ok, 0);
}

TEST(DecodeFuzz, ObsPayload)
{
    const int ok = fuzz(obsDocs(), 7, [](const std::string& s) {
        obs::workerObsFromJson(s, "fuzz obs");
    });
    EXPECT_GT(ok, 0);
}

/** Every record of the trace file at @p path, as raw bytes. */
std::string
drainRecords(const std::string& path, trace::FileMode mode)
{
    trace::FileTraceSource src(path, mode);
    std::string bytes;
    for (auto chunk = src.nextChunk(); !chunk.empty();
         chunk = src.nextChunk())
        bytes.append(reinterpret_cast<const char*>(chunk.data()),
                     chunk.size_bytes());
    return bytes;
}

TEST(DecodeFuzz, ChunkedTraceFile)
{
    // A real v3 file in small chunks, so mutants land in the header,
    // the chunk frames and the record payloads alike.
    const std::string clean_path = "/tmp/mrp_decode_fuzz_clean.trace";
    const std::string path = "/tmp/mrp_decode_fuzz_mutant.trace";
    {
        const auto tr = trace::makeSuiteTrace(3, 4000);
        trace::ChunkedTraceWriter writer(clean_path, tr.name(), 64);
        writer.append(tr.records());
        writer.finish();
    }
    std::string clean;
    {
        std::ifstream is(clean_path, std::ios::binary);
        clean.assign(std::istreambuf_iterator<char>(is), {});
    }
    const std::string records =
        drainRecords(clean_path, trace::FileMode::Buffered);
    ASSERT_GT(records.size(), 0u);

    // Every mutant either fails with a typed error or, when the
    // mutation missed every checked byte, decodes to the original
    // records: the CRCs leave no silent corruption.
    Mutator m(8);
    int drained = 0;
    for (int i = 0; i < kIterations / 10; ++i) {
        {
            std::ofstream os(path, std::ios::binary | std::ios::trunc);
            os << (i == 0 ? clean : m.mutate(clean));
        }
        for (const auto mode :
             {trace::FileMode::Buffered, trace::FileMode::Mmap}) {
            try {
                EXPECT_EQ(drainRecords(path, mode), records)
                    << "mutant " << i << " decoded to other records";
                ++drained;
            } catch (const FatalError& e) {
                EXPECT_NE(e.code(), ErrorCode::None) << e.what();
                EXPECT_NE(e.code(), ErrorCode::Internal) << e.what();
            }
        }
    }
    std::remove(path.c_str());
    std::remove(clean_path.c_str());
    EXPECT_GE(drained, 2); // at least the clean file, in both modes
}

} // namespace
} // namespace mrp
