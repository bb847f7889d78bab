/**
 * @file
 * Crash-safe checkpoint journal for experiment batches.
 *
 * The journal is append-only JSONL: one line per completed RunResult,
 * written with a single write(2) and fsync'd, so a crash can lose at
 * most a partially-written final line. Each line is prefixed with the
 * CRC-32 of its JSON body:
 *
 *   <crc32-hex8> {"index": 3, "benchmark": "...", ...}\n
 *
 * The loader verifies every line's checksum; an invalid *final* line
 * is the expected signature of a torn write and is silently dropped,
 * while an invalid interior line means real corruption and raises
 * FatalError(ErrorCode::CorruptInput).
 *
 * Journal lines carry exactly the deterministic fields of RunResult
 * (doubles in shortest round-trip form), so a resumed batch's reports
 * are byte-identical to an uninterrupted run's.
 *
 * Fault-injection sites:
 *   "runner.journal.open"   IoError — fail opening the journal
 *   "runner.journal.write"  IoError — fail an append
 */

#ifndef MRP_RUNNER_CHECKPOINT_HPP
#define MRP_RUNNER_CHECKPOINT_HPP

#include <optional>
#include <string>
#include <vector>

#include "runner/run_request.hpp"
#include "util/journal.hpp"

namespace mrp::runner {

/**
 * Append-only, fsync'd journal writer. Thread-safe: workers append
 * results as they complete, in completion order (the index field, not
 * line order, keys each entry). A thin RunResult-typed veneer over
 * journal::AppendFile.
 */
class CheckpointJournal
{
  public:
    /** Opens (creating or appending to) @p path; throws
     * FatalError(ErrorCode::Io) on failure. */
    explicit CheckpointJournal(const std::string& path);
    CheckpointJournal(const CheckpointJournal&) = delete;
    CheckpointJournal& operator=(const CheckpointJournal&) = delete;

    /** Serialize, append, and fsync one completed result. */
    void append(const RunResult& result);

    const std::string& path() const { return file_.path(); }

  private:
    journal::AppendFile file_;
};

/**
 * Parse a journal into results. Tolerates a torn final line; throws
 * FatalError(ErrorCode::CorruptInput) for interior corruption and
 * FatalError(ErrorCode::Io) if @p path cannot be read. Entries appear
 * in file order; duplicate indices (possible when a journal is resumed
 * more than once) keep the last occurrence.
 */
std::vector<RunResult> loadJournal(const std::string& path);

/** One journal line (checksum prefix + JSON + newline); exposed for
 * tests that construct torn or corrupt journals. */
std::string journalLine(const RunResult& result);

/** Parse one line; std::nullopt if the checksum or JSON is invalid. */
std::optional<RunResult> parseJournalLine(const std::string& line);

/** JSON body of one result (what journalLine frames with a checksum).
 * Deterministic fields only — the queue wire protocol reuses this
 * exact form, so a worker's RESULT payload and a journal entry are
 * the same bytes. */
std::string resultJson(const RunResult& result);

/** The members every result record opens with (index through
 * llcBypasses, then seed and coreIpc when they carry data), without
 * braces: the shared head of journal lines and report records. */
std::string resultCoreJson(const RunResult& result);

/**
 * Parse a resultJson body with the shared JSON reader. Members that
 * resultJson always writes are required and unknown members are
 * ignored. Integers are exact over their field's range (seeds and
 * counters above 2^53 survive). std::nullopt when the text is not one
 * JSON object or a member is missing, mistyped, fractional or out of
 * range.
 */
std::optional<RunResult> resultFromJson(const std::string& json);

} // namespace mrp::runner

#endif // MRP_RUNNER_CHECKPOINT_HPP
