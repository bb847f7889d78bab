/**
 * @file
 * Tests for the trace file: the CRC-32 that seals it (known answers,
 * and agreement with a byte-at-a-time reference at every length,
 * alignment and update split), the bytes ChunkedTraceWriter writes
 * (pinned sizes and CRC-32s, independence from how records are
 * appended), round trips through FileTraceSource, and a fuzz-style
 * corrupt-input suite (truncation at every header byte, bit flips,
 * oversized length fields, retired v1/v2 images) driven through the
 * fault injector. Every reading case runs in both FileModes, so the
 * buffered and the mmap decoder see the same corrupt input. Every
 * rejection must be a typed FatalError — no crash, no unbounded
 * allocation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <unistd.h>
#include <vector>

#include "trace/spec.hpp"
#include "trace/stream_reader.hpp"
#include "trace/wire_format.hpp"
#include "trace/workloads.hpp"
#include "util/crc32.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"

namespace mrp::trace {
namespace {

constexpr FileMode kModes[] = {FileMode::Buffered, FileMode::Mmap};

/** Small chunks so 5k-instruction traces span several of them. */
constexpr std::size_t kTestChunk = 256;

const char*
modeName(FileMode mode)
{
    return mode == FileMode::Buffered ? "buffered" : "mmap";
}

void
expectEqualTraces(const Trace& a, const Trace& b)
{
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.instructions(), b.instructions());
    ASSERT_EQ(a.records().size(), b.records().size());
    for (std::size_t i = 0; i < a.records().size(); ++i) {
        EXPECT_EQ(a.records()[i].pc(), b.records()[i].pc());
        EXPECT_EQ(a.records()[i].op(), b.records()[i].op());
        EXPECT_EQ(a.records()[i].count(), b.records()[i].count());
        if (a.records()[i].isMem()) {
            EXPECT_EQ(a.records()[i].addr(), b.records()[i].addr());
            EXPECT_EQ(a.records()[i].dependsOnPrevLoad(),
                      b.records()[i].dependsOnPrevLoad());
        }
    }
}

/** A per-process temporary file path, removed on scope exit. */
class TempPath
{
  public:
    explicit TempPath(const std::string& tag)
        : path_("trace_io_test_" + tag + "_" +
                std::to_string(::getpid()) + ".mrpt")
    {
    }
    ~TempPath() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }
    std::string tmp() const
    {
        return path_ + ".tmp." + std::to_string(::getpid());
    }

  private:
    std::string path_;
};

void
writeFile(const std::string& path, const Trace& trace,
          std::size_t chunk = kTestChunk)
{
    ChunkedTraceWriter writer(path, trace.name(), chunk);
    writer.append(trace.records());
    writer.finish();
}

std::string
slurp(const std::string& path)
{
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f),
            std::istreambuf_iterator<char>()};
}

void
putFile(const std::string& path, const std::string& bytes)
{
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/** The file image ChunkedTraceWriter produces for @p trace. */
std::string
bytesOf(const Trace& trace, std::size_t chunk = kTestChunk)
{
    TempPath file("image");
    writeFile(file.path(), trace, chunk);
    return slurp(file.path());
}

Trace
readFile(const std::string& path, FileMode mode)
{
    FileTraceSource source(path, mode);
    return materialize(source);
}

/** The FatalError reading @p bytes raises in @p mode; None if the
 * whole file decodes cleanly. */
FatalError
readError(const std::string& bytes, FileMode mode)
{
    TempPath file("read");
    putFile(file.path(), bytes);
    try {
        (void)readFile(file.path(), mode);
    } catch (const FatalError& e) {
        return e;
    }
    return FatalError(ErrorCode::None, "decoded cleanly");
}

ErrorCode
readCode(const std::string& bytes, FileMode mode)
{
    return readError(bytes, mode).code();
}

std::uint32_t
u32At(const std::string& bytes, std::size_t at)
{
    std::uint32_t v = 0;
    std::memcpy(&v, bytes.data() + at, sizeof(v));
    return v;
}

/** Recompute the header CRC after a deliberate field edit, so the
 * edit reaches the checks behind the CRC. */
void
resealHeader(std::string& bytes)
{
    const std::uint64_t crc_at =
        wire::v3PayloadStart(u32At(bytes, 24)) - 4;
    const std::uint32_t crc = Crc32::of(bytes.data(), crc_at);
    std::memcpy(&bytes[crc_at], &crc, sizeof(crc));
}

// ---------------------------------------------------------------------
// CRC-32

/** The byte-at-a-time table loop (Sarwate), the reference the sliced
 * Crc32::update must agree with. */
std::uint32_t
referenceCrc(const unsigned char* p, std::size_t size)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i)
        c = detail::kCrc32Table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
    return ~c;
}

/** Seeded random bytes: 80-byte inputs at every start offset 0-15. */
std::vector<unsigned char>
randomBytes()
{
    Rng rng(0xC3C32);
    std::vector<unsigned char> buf(96);
    for (auto& b : buf)
        b = static_cast<unsigned char>(rng.next());
    return buf;
}

TEST(Crc32Test, KnownAnswers)
{
    const char check[] = "123456789";
    EXPECT_EQ(Crc32::of(check, 9), 0xCBF43926u); // CRC-32/IEEE check
    EXPECT_EQ(Crc32::of(check, 0), 0u);
    EXPECT_EQ(referenceCrc(reinterpret_cast<const unsigned char*>(check),
                           9),
              0xCBF43926u);
}

TEST(Crc32Test, MatchesByteLoopAtEveryLengthAndOffset)
{
    const std::vector<unsigned char> buf = randomBytes();
    for (std::size_t off = 0; off < 16; ++off)
        for (std::size_t len = 0; len <= 80; ++len)
            ASSERT_EQ(Crc32::of(buf.data() + off, len),
                      referenceCrc(buf.data() + off, len))
                << "offset " << off << " length " << len;
}

TEST(Crc32Test, SplitUpdatesEqualOneShot)
{
    const std::vector<unsigned char> buf = randomBytes();
    for (const std::size_t off : {0u, 3u}) {
        const unsigned char* p = buf.data() + off;
        const std::size_t len = 80;
        const std::uint32_t whole = Crc32::of(p, len);
        for (std::size_t cut = 0; cut <= len; ++cut) {
            Crc32 crc;
            crc.update(p, cut);
            crc.update(p + cut, len - cut);
            ASSERT_EQ(crc.value(), whole)
                << "offset " << off << " cut " << cut;
        }
    }
}

// ---------------------------------------------------------------------
// Written bytes

TEST(TraceIoTest, WriterBytesArePinned)
{
    // Size and CRC-32 of whole files at a chunk capacity of 1000
    // records. A change here is a change of the file format, which
    // needs a new version number, not a new golden.
    struct Golden
    {
        unsigned index;
        std::size_t bytes;
        std::uint32_t crc;
    };
    const Golden golden[] = {
        {0, 49376, 0x1dcf0c11u},  // compute.small, short last chunk
        {9, 128176, 0xc392d74fu}, // scan.a, chunk-aligned
        {22, 160256, 0x1712e9fdu}, // chase.4m
    };
    for (const auto& g : golden) {
        const std::string bytes =
            bytesOf(makeSuiteTrace(g.index, 20000), 1000);
        EXPECT_EQ(bytes.size(), g.bytes) << "suite trace " << g.index;
        EXPECT_EQ(Crc32::of(bytes.data(), bytes.size()), g.crc)
            << "suite trace " << g.index;
    }
}

TEST(TraceIoTest, WriterBytesIgnoreAppendShape)
{
    const Trace original = makeSuiteTrace(0, 20000); // 3078 records
    const std::size_t cap = 1000;
    const std::string whole = bytesOf(original, cap);

    // Odd-sized appends straddle chunk boundaries from both sides.
    TempPath odd("odd");
    {
        ChunkedTraceWriter writer(odd.path(), original.name(), cap);
        const std::span<const Record> all(original.records());
        const std::size_t sizes[] = {1, cap - 1, cap + 1};
        for (std::size_t pos = 0, i = 0; pos < all.size(); ++i) {
            const std::size_t n =
                std::min(sizes[i % 3], all.size() - pos);
            writer.append(all.subspan(pos, n));
            pos += n;
        }
        writer.append({}); // empty appends are no-ops
        writer.finish();
    }
    EXPECT_EQ(slurp(odd.path()), whole);

    TempPath drained("drained");
    {
        ChunkedTraceWriter writer(drained.path(), original.name(), cap);
        MaterializedTraceSource source(original, 777);
        writer.appendAll(source);
        writer.finish();
        EXPECT_EQ(writer.recordCount(), original.records().size());
        EXPECT_EQ(writer.instructions(), original.instructions());
    }
    EXPECT_EQ(slurp(drained.path()), whole);
}

// ---------------------------------------------------------------------
// Round trips

TEST(TraceIoTest, RoundTripsThroughStream)
{
    const Trace original = makeSuiteTrace(22, 30000); // pointer chase
    TempPath file("stream");
    writeFile(file.path(), original);
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        FileTraceSource source(file.path(), mode);
        EXPECT_EQ(source.name(), original.name());
        EXPECT_EQ(source.instructions(), original.instructions());
        std::size_t pos = 0;
        for (auto chunk = source.nextChunk(); !chunk.empty();
             chunk = source.nextChunk()) {
            ASSERT_LE(chunk.size(), kTestChunk);
            ASSERT_LE(pos + chunk.size(), original.records().size());
            EXPECT_EQ(std::memcmp(chunk.data(),
                                  original.records().data() + pos,
                                  chunk.size_bytes()),
                      0);
            pos += chunk.size();
        }
        EXPECT_EQ(pos, original.records().size());
    }
}

TEST(TraceIoTest, RoundTripsThroughFile)
{
    const Trace original = makeSuiteTrace(9, 20000);
    TempPath file("file");
    writeFile(file.path(), original, kDefaultChunkRecords);
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        expectEqualTraces(original, readFile(file.path(), mode));
    }
}

TEST(TraceIoTest, V3RoundTripsExplicitly)
{
    // The writer stamps version 3 and the chosen chunk capacity, and
    // pads the name so the first chunk is 16-byte aligned.
    const Trace original = makeSuiteTrace(22, 30000);
    const std::string bytes = bytesOf(original, 300);
    EXPECT_EQ(std::memcmp(bytes.data(), wire::kMagic, 4), 0);
    EXPECT_EQ(u32At(bytes, 4), wire::kVersion);
    EXPECT_EQ(u32At(bytes, 24), original.name().size());
    EXPECT_EQ(u32At(bytes, 28), 300u);
    EXPECT_EQ(wire::v3PayloadStart(original.name().size()) % 16, 0u);
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        EXPECT_EQ(readCode(bytes, mode), ErrorCode::None);
    }
}

// ---------------------------------------------------------------------
// Corrupt input

TEST(TraceIoTest, MissingFile)
{
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        try {
            FileTraceSource source("/nonexistent/path/to.mrpt", mode);
            FAIL() << "expected FatalError";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::Io);
        }
    }
}

TEST(TraceIoTest, RejectsBadMagic)
{
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        EXPECT_EQ(readCode("NOPE and more bytes to be safe", mode),
                  ErrorCode::CorruptInput);
    }
}

/** A retired monolithic image: the 28-byte base header, the name,
 * the packed records and, for v2, a CRC-32 footer over all of it. */
std::string
legacyImage(std::uint32_t version)
{
    const Trace t = makeSuiteTrace(0, 2000);
    std::string img(wire::kMagic, 4);
    const auto put = [&img](const auto& v) {
        img.append(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    put(version);
    put(static_cast<std::uint64_t>(t.instructions()));
    put(static_cast<std::uint64_t>(t.records().size()));
    put(static_cast<std::uint32_t>(t.name().size()));
    img += t.name();
    img.append(reinterpret_cast<const char*>(t.records().data()),
               t.records().size() * sizeof(Record));
    if (version == 2)
        put(Crc32::of(img.data(), img.size()));
    return img;
}

void
expectLegacyRejected(std::uint32_t version)
{
    const std::string img = legacyImage(version);
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        const FatalError e = readError(img, mode);
        EXPECT_EQ(e.code(), ErrorCode::CorruptInput) << e.what();
        EXPECT_NE(std::string(e.what()).find(
                      "version " + std::to_string(version)),
                  std::string::npos)
            << e.what();
    }
    // File specs validate the header up front, too.
    TempPath file("old_spec");
    putFile(file.path(), img);
    try {
        (void)TraceSpec::file(file.path());
        FAIL() << "a v" << version << " file became a spec";
    } catch (const FatalError& e) {
        EXPECT_EQ(e.code(), ErrorCode::CorruptInput);
    }
}

TEST(TraceIoTest, RejectsLegacyV1Image) { expectLegacyRejected(1); }

TEST(TraceIoTest, RejectsLegacyV2Image) { expectLegacyRejected(2); }

TEST(TraceIoTest, RejectsTruncation)
{
    const std::string bytes = bytesOf(makeSuiteTrace(0, 5000));
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        EXPECT_EQ(readCode(bytes.substr(0, bytes.size() / 2), mode),
                  ErrorCode::CorruptInput);
    }
}

TEST(TraceIoTest, RejectsTruncationAtEveryHeaderBoundary)
{
    const Trace original = makeSuiteTrace(0, 5000);
    const std::string bytes = bytesOf(original);
    const std::size_t payload =
        wire::v3PayloadStart(original.name().size());
    // Every cut inside the header, a sample of cuts through the
    // chunks, and every cut through the last few bytes.
    std::vector<std::size_t> cuts;
    for (std::size_t c = 0; c <= payload; ++c)
        cuts.push_back(c);
    for (std::size_t c = payload; c < bytes.size();
         c += (bytes.size() - payload) / 16 + 1)
        cuts.push_back(c);
    for (std::size_t back = 1; back <= 5; ++back)
        cuts.push_back(bytes.size() - back);
    for (const auto mode : kModes) {
        for (const std::size_t cut : cuts) {
            const ErrorCode code = readCode(bytes.substr(0, cut), mode);
            EXPECT_EQ(code, ErrorCode::CorruptInput)
                << modeName(mode) << " cut at " << cut << " gave code "
                << errorCodeName(code);
        }
    }
}

TEST(TraceIoTest, TruncationDiagnosticsReportOffsets)
{
    const Trace original = makeSuiteTrace(0, 5000);
    const std::string bytes = bytesOf(original);
    const std::size_t payload =
        wire::v3PayloadStart(original.name().size());
    // One cut inside the name, one inside the first chunk.
    for (const std::size_t cut :
         {wire::kV3FixedBytes + 2, payload + 40}) {
        for (const auto mode : kModes) {
            SCOPED_TRACE(modeName(mode));
            const FatalError e = readError(bytes.substr(0, cut), mode);
            EXPECT_EQ(e.code(), ErrorCode::CorruptInput);
            const std::string what = e.what();
            EXPECT_NE(what.find("truncated"), std::string::npos)
                << what;
            EXPECT_NE(what.find("offset"), std::string::npos) << what;
        }
    }
}

TEST(TraceIoTest, RejectsCorruptInstructionCount)
{
    std::string bytes = bytesOf(makeSuiteTrace(0, 5000));
    bytes[8] ^= 0x5A; // flip bits in the instruction-count field
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        EXPECT_EQ(readCode(bytes, mode), ErrorCode::CorruptInput);
    }
    // Behind the header CRC, the chunk totals catch it as well.
    resealHeader(bytes);
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        EXPECT_EQ(readCode(bytes, mode), ErrorCode::CorruptInput);
    }
}

TEST(TraceIoTest, V3RejectsHeaderBitFlips)
{
    // The header CRC catches even a flipped bit in a field that still
    // parses (the name).
    std::string bytes = bytesOf(makeSuiteTrace(1, 5000));
    bytes[34] ^= 0x01; // third byte of the trace name
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        EXPECT_EQ(readCode(bytes, mode), ErrorCode::CorruptInput);
    }
}

TEST(TraceIoTest, RejectsBitFlippedHeaderCrc)
{
    const Trace original = makeSuiteTrace(1, 5000);
    std::string bytes = bytesOf(original);
    bytes[wire::v3PayloadStart(original.name().size()) - 2] ^= 0x10;
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        const FatalError e = readError(bytes, mode);
        EXPECT_EQ(e.code(), ErrorCode::CorruptInput);
        EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos)
            << e.what();
    }
}

TEST(TraceIoTest, CrcCatchesPayloadBitFlips)
{
    // A sweep of single-bit flips through the chunks: chunk headers,
    // records, and record fields the simulator would happily accept.
    const Trace original = makeSuiteTrace(1, 5000);
    const std::string bytes = bytesOf(original);
    const std::size_t payload =
        wire::v3PayloadStart(original.name().size());
    for (std::size_t at = payload; at < bytes.size();
         at += (bytes.size() - payload) / 32 + 1) {
        std::string bad = bytes;
        bad[at] ^= static_cast<char>(1u << (at % 8));
        for (const auto mode : kModes)
            EXPECT_EQ(readCode(bad, mode), ErrorCode::CorruptInput)
                << modeName(mode) << " flip at byte " << at;
    }
}

TEST(TraceIoTest, V3CrcCatchesPayloadBitFlips)
{
    std::string bytes = bytesOf(makeSuiteTrace(1, 5000));
    bytes[bytes.size() / 2] ^= 0x04;
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        const FatalError e = readError(bytes, mode);
        EXPECT_EQ(e.code(), ErrorCode::CorruptInput);
        EXPECT_NE(std::string(e.what()).find("offset"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceIoTest, RejectsOversizedNameLength)
{
    std::string bytes = bytesOf(makeSuiteTrace(0, 5000));
    const std::uint32_t huge = 0xFFFFFFF0u;
    std::memcpy(&bytes[24], &huge, sizeof(huge));
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        EXPECT_EQ(readCode(bytes, mode), ErrorCode::CorruptInput);
    }
}

TEST(TraceIoTest, RejectsOversizedRecordCountWithoutAllocating)
{
    // A sealed header claiming ~16 TiB of records must be rejected
    // from the file size on open, before any chunk is read.
    std::string bytes = bytesOf(makeSuiteTrace(0, 5000));
    const std::uint64_t huge = 1ull << 40;
    std::memcpy(&bytes[16], &huge, sizeof(huge));
    resealHeader(bytes);
    TempPath file("huge");
    putFile(file.path(), bytes);
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        try {
            FileTraceSource source(file.path(), mode);
            FAIL() << "open accepted a 2^40-record header";
        } catch (const FatalError& e) {
            EXPECT_EQ(e.code(), ErrorCode::CorruptInput);
        }
    }
}

TEST(TraceIoTest, RejectsPlausibleButWrongRecordCount)
{
    const std::string bytes = bytesOf(makeSuiteTrace(0, 5000));
    std::uint64_t count = 0;
    std::memcpy(&count, &bytes[16], sizeof(count));
    for (const std::uint64_t wrong : {count - 1, count + 1}) {
        std::string bad = bytes;
        std::memcpy(&bad[16], &wrong, sizeof(wrong));
        resealHeader(bad);
        for (const auto mode : kModes)
            EXPECT_EQ(readCode(bad, mode), ErrorCode::CorruptInput)
                << modeName(mode) << " record count " << wrong;
    }
}

TEST(TraceIoTest, V3RejectsTrailingGarbage)
{
    // A chunked payload knows exactly where it ends; stray bytes after
    // the last chunk mean the file is not what its header claims.
    const std::string bytes = bytesOf(makeSuiteTrace(1, 5000));
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        EXPECT_EQ(readCode(bytes + "stray", mode),
                  ErrorCode::CorruptInput);
    }
}

// ---------------------------------------------------------------------
// Fault injection

class TraceIoFaultTest : public ::testing::Test
{
  protected:
    void TearDown() override { fault::disarmAll(); }
};

TEST_F(TraceIoFaultTest, InjectedWriteCorruptionIsAlwaysDetected)
{
    const Trace original = makeSuiteTrace(2, 5000);
    const std::size_t chunks =
        (original.records().size() + kTestChunk - 1) / kTestChunk;
    ASSERT_GT(chunks, 2u);
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        fault::Spec spec;
        spec.kind = fault::Kind::CorruptByte;
        spec.seed = seed;
        spec.firstHit = 1 + seed % chunks; // which chunk header
        fault::Scoped f("stream.write.corrupt", spec);
        const std::string bytes = bytesOf(original);
        for (const auto mode : kModes)
            EXPECT_EQ(readCode(bytes, mode), ErrorCode::CorruptInput)
                << modeName(mode) << " seed " << seed
                << " corrupted a byte the reader failed to notice";
    }
}

TEST_F(TraceIoFaultTest, InjectedAllocFailureIsTypedResourceError)
{
    const std::string bytes = bytesOf(makeSuiteTrace(2, 5000));
    fault::Spec spec;
    spec.kind = fault::Kind::AllocFail;
    {
        fault::Scoped f("stream.read.alloc", spec);
        EXPECT_EQ(readCode(bytes, FileMode::Buffered),
                  ErrorCode::Resource);
    }
    // Mapped chunks are served in place: there is no buffer to fail.
    fault::Scoped f("stream.read.alloc", spec);
    EXPECT_EQ(readCode(bytes, FileMode::Mmap), ErrorCode::None);
    EXPECT_EQ(fault::hits("stream.read.alloc"), 0u);
}

/** Code of the FatalError @p fn throws; None if it returns. */
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

TEST_F(TraceIoFaultTest, InjectedIoFailuresAreTypedIoErrors)
{
    const Trace original = makeSuiteTrace(2, 5000);
    TempPath file("fault");
    {
        fault::Scoped f("stream.write", fault::Spec{});
        EXPECT_EQ(codeOf([&] { writeFile(file.path(), original); }),
                  ErrorCode::Io);
    }
    writeFile(file.path(), original);
    for (const auto mode : kModes) {
        SCOPED_TRACE(modeName(mode));
        for (const char* site : {"stream.open", "stream.read"}) {
            fault::Scoped f(site, fault::Spec{});
            EXPECT_EQ(codeOf([&] { readFile(file.path(), mode); }),
                      ErrorCode::Io)
                << site;
        }
    }
    {
        fault::Scoped f("stream.mmap", fault::Spec{});
        EXPECT_EQ(codeOf([&] { readFile(file.path(), FileMode::Mmap); }),
                  ErrorCode::Io);
    }
    for (const auto mode : kModes) // all disarmed
        expectEqualTraces(original, readFile(file.path(), mode));
}

TEST_F(TraceIoFaultTest, FailedSaveLeavesTargetAndNoTmpBehind)
{
    const Trace original = makeSuiteTrace(2, 5000);
    TempPath file("atomic");
    writeFile(file.path(), original);
    const std::string before = slurp(file.path());
    {
        // Fail the second chunk append: the abandoned writer removes
        // its tmp and the previous file stays intact.
        fault::Spec spec;
        spec.firstHit = 3; // hit 1 creates the tmp, hit 2 is chunk 1
        fault::Scoped f("stream.write", spec);
        EXPECT_THROW(writeFile(file.path(), makeSuiteTrace(3, 5000)),
                     FatalError);
    }
    EXPECT_FALSE(std::ifstream(file.tmp()).good())
        << "a tmp file survived a failed save";
    EXPECT_EQ(slurp(file.path()), before);

    // A successful save also cleans up after itself.
    writeFile(file.path(), original);
    EXPECT_FALSE(std::ifstream(file.tmp()).good());
    EXPECT_EQ(slurp(file.path()), before);
}

} // namespace
} // namespace mrp::trace
