#include "queue/work_queue.hpp"

#include <unistd.h>

#include "util/json_reader.hpp"
#include "util/json_writer.hpp"

namespace mrp::queue {

namespace {

std::string
headerJson(const std::string& fingerprint)
{
    return json::firstKey("type") + json::str("header") + ", " +
           json::key("schema") +
           std::to_string(journal::kQueueSchemaVersion) + ", " +
           json::key("fingerprint") + json::str(fingerprint) + "}";
}

} // namespace

WorkQueue::WorkQueue(const std::string& path,
                     const std::string& fingerprint)
{
    bool fresh = true;
    std::vector<std::string> lines;
    if (journal::fileExists(path)) {
        const auto scan =
            journal::scanContent(journal::readWholeFile(path), path);
        if (!scan.lines.empty()) {
            const std::string what =
                "queue journal " + path + " header";
            const auto v = json::parseJson(scan.lines[0], what);
            const auto* type = v.get("type");
            fatalIf(!v.isObject() || type == nullptr ||
                        !type->isString() ||
                        type->string != "header",
                    ErrorCode::Config,
                    "queue file " + path +
                        " has no header record and is not a queue "
                        "journal (a pre-queue checkpoint journal?); "
                        "refusing to reuse it — delete or move the "
                        "file to proceed");
            const auto schema = v.integer<unsigned>("schema", what);
            fatalIf(
                schema != journal::kQueueSchemaVersion,
                ErrorCode::Config,
                "queue file " + path + " was written under schema v" +
                    std::to_string(schema) +
                    " but this broker speaks v" +
                    std::to_string(journal::kQueueSchemaVersion) +
                    "; refusing to misread it");
            const std::string& fp = v.str("fingerprint", what);
            // A different batch's scratch queue: restart fresh (the
            // study journal, which must never be clobbered, refuses
            // on mismatch instead — see Study::run).
            if (fp == fingerprint) {
                fresh = false;
                lines = scan.lines;
            }
        }
    }
    if (fresh && journal::fileExists(path))
        fatalIf(::truncate(path.c_str(), 0) != 0, ErrorCode::Io,
                "failed to truncate stale queue file " + path);
    file_ =
        std::make_unique<journal::AppendFile>(path, "queue.journal");
    if (fresh)
        file_->append(headerJson(fingerprint));
    else
        replay(lines);
}

void
WorkQueue::replay(const std::vector<std::string>& lines)
{
    const std::string what = "queue journal " + file_->path();
    for (std::size_t i = 1; i < lines.size(); ++i) {
        const auto v = json::parseJson(lines[i], what);
        const std::string& type = v.str("type", what);
        if (type == "header")
            fatal(ErrorCode::CorruptInput,
                  what + ": duplicate header record at line " +
                      std::to_string(i + 1));
        const std::uint64_t id = v.integer("id", what);
        if (type == "enqueue") {
            fatalIf(jobs_.count(id) != 0, ErrorCode::CorruptInput,
                    what + ": job " + std::to_string(id) +
                        " enqueued twice");
            QueueJob j;
            j.id = id;
            j.requestJson = v.str("request", what);
            jobs_.emplace(id, std::move(j));
            continue;
        }
        auto it = jobs_.find(id);
        fatalIf(it == jobs_.end(), ErrorCode::CorruptInput,
                what + ": " + type + " record for unknown job " +
                    std::to_string(id));
        QueueJob& j = it->second;
        if (type == "lease") {
            j.state = JobState::Leased;
            j.attempts = v.integer<unsigned>("attempt", what);
        } else if (type == "requeue") {
            j.state = JobState::Pending;
        } else if (type == "complete") {
            j.state = JobState::Done;
            j.resultJson = v.str("result", what);
        } else {
            fatal(ErrorCode::CorruptInput,
                  what + ": unknown record type \"" + type + "\"");
        }
    }
    // A job still Leased at end-of-journal was in flight when the
    // broker died; its lease dies with the broker.
    for (auto& [id, j] : jobs_)
        if (j.state == JobState::Leased)
            j.state = JobState::Pending;
}

void
WorkQueue::ensureEnqueued(std::uint64_t id,
                          const std::string& request_json)
{
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) {
        fatalIf(it->second.requestJson != request_json,
                ErrorCode::Config,
                "queue journal " + file_->path() + " job " +
                    std::to_string(id) +
                    " does not match the batch being enqueued "
                    "(same fingerprint, different request — "
                    "delete the queue file)");
        return;
    }
    file_->append(json::firstKey("type") + json::str("enqueue") +
                  ", " + json::key("id") + std::to_string(id) +
                  ", " + json::key("request") +
                  json::str(request_json) + "}");
    QueueJob j;
    j.id = id;
    j.requestJson = request_json;
    jobs_.emplace(id, std::move(j));
}

unsigned
WorkQueue::lease(std::uint64_t id)
{
    QueueJob& j = mutableJob(id);
    fatalIf(j.state != JobState::Pending, ErrorCode::Internal,
            "leasing job " + std::to_string(id) +
                " which is not pending");
    ++j.attempts;
    file_->append(json::firstKey("type") + json::str("lease") +
                  ", " + json::key("id") + std::to_string(id) +
                  ", " + json::key("attempt") +
                  std::to_string(j.attempts) + "}");
    j.state = JobState::Leased;
    return j.attempts;
}

void
WorkQueue::requeue(std::uint64_t id, const std::string& reason,
                   ErrorCode code)
{
    QueueJob& j = mutableJob(id);
    fatalIf(j.state != JobState::Leased, ErrorCode::Internal,
            "requeueing job " + std::to_string(id) +
                " which is not leased");
    file_->append(json::firstKey("type") + json::str("requeue") +
                  ", " + json::key("id") + std::to_string(id) +
                  ", " + json::key("reason") + json::str(reason) +
                  ", " + json::key("code") + json::str(
                      errorCodeName(code)) + "}");
    j.state = JobState::Pending;
}

void
WorkQueue::complete(std::uint64_t id,
                    const std::string& result_json)
{
    QueueJob& j = mutableJob(id);
    fatalIf(j.state == JobState::Done, ErrorCode::Internal,
            "completing job " + std::to_string(id) + " twice");
    file_->append(json::firstKey("type") + json::str("complete") +
                  ", " + json::key("id") + std::to_string(id) +
                  ", " + json::key("result") +
                  json::str(result_json) + "}");
    j.state = JobState::Done;
    j.resultJson = result_json;
}

const QueueJob&
WorkQueue::job(std::uint64_t id) const
{
    const auto it = jobs_.find(id);
    fatalIf(it == jobs_.end(), ErrorCode::Internal,
            "unknown queue job " + std::to_string(id));
    return it->second;
}

QueueJob&
WorkQueue::mutableJob(std::uint64_t id)
{
    const auto it = jobs_.find(id);
    fatalIf(it == jobs_.end(), ErrorCode::Internal,
            "unknown queue job " + std::to_string(id));
    return it->second;
}

std::vector<std::uint64_t>
WorkQueue::pendingIds() const
{
    std::vector<std::uint64_t> out;
    for (const auto& [id, j] : jobs_)
        if (j.state == JobState::Pending)
            out.push_back(id);
    return out;
}

std::size_t
WorkQueue::doneCount() const
{
    std::size_t n = 0;
    for (const auto& [id, j] : jobs_)
        if (j.state == JobState::Done)
            ++n;
    return n;
}

bool
WorkQueue::allDone() const
{
    return doneCount() == jobs_.size();
}

} // namespace mrp::queue
