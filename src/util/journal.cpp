#include "util/journal.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

#include "util/crc32.hpp"
#include "util/fault_injection.hpp"
#include "util/logging.hpp"

namespace mrp::journal {

namespace {

std::string
hex8(std::uint32_t v)
{
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%08x", v);
    return buf;
}

} // namespace

std::string
frameLine(const std::string& json)
{
    return hex8(Crc32::of(json.data(), json.size())) + " " + json +
           "\n";
}

std::optional<std::string>
unframeLine(const std::string& line)
{
    std::string body = line;
    while (!body.empty() &&
           (body.back() == '\n' || body.back() == '\r'))
        body.pop_back();
    if (body.size() < 10 || body[8] != ' ')
        return std::nullopt;
    std::uint32_t stored = 0;
    for (int i = 0; i < 8; ++i) {
        const char h = body[static_cast<std::size_t>(i)];
        stored <<= 4;
        if (h >= '0' && h <= '9')
            stored |= static_cast<std::uint32_t>(h - '0');
        else if (h >= 'a' && h <= 'f')
            stored |= static_cast<std::uint32_t>(h - 'a' + 10);
        else
            return std::nullopt;
    }
    std::string json = body.substr(9);
    if (Crc32::of(json.data(), json.size()) != stored)
        return std::nullopt;
    return json;
}

Scan
scanContent(const std::string& content, const std::string& path,
            const std::function<bool(const std::string&)>& accept)
{
    Scan scan;
    std::size_t pos = 0;
    std::size_t line_no = 0;
    while (pos < content.size()) {
        ++line_no;
        const std::size_t nl = content.find('\n', pos);
        const bool complete = nl != std::string::npos;
        const std::size_t len =
            (complete ? nl : content.size()) - pos;
        auto json = unframeLine(content.substr(pos, len));
        const std::size_t next = complete ? nl + 1 : content.size();
        if (!json || (accept && !accept(*json))) {
            fatalIf(next < content.size(), ErrorCode::CorruptInput,
                    "corrupt journal " + path + ": line " +
                        std::to_string(line_no) +
                        " fails checksum/parse but is not the final "
                        "line");
            return scan; // torn tail: drop it
        }
        scan.lines.push_back(std::move(*json));
        scan.validBytes = next;
        pos = next;
    }
    return scan;
}

std::string
readWholeFile(const std::string& path)
{
    std::ifstream is(path, std::ios::binary);
    fatalIf(!is, ErrorCode::Io, "cannot open journal: " + path);
    std::ostringstream ss;
    ss << is.rdbuf();
    fatalIf(is.bad(), ErrorCode::Io,
            "read failed on journal: " + path);
    return ss.str();
}

bool
fileExists(const std::string& path)
{
    return ::access(path.c_str(), F_OK) == 0;
}

AppendFile::AppendFile(const std::string& path,
                       const std::string& site_prefix)
    : path_(path), sitePrefix_(site_prefix)
{
    fault::checkIo(sitePrefix_ + ".open",
                   "opening journal " + path_);
    // Heal a torn tail left by a crash: truncate to the valid line
    // prefix so new appends never concatenate onto a partial line.
    if (fileExists(path_)) {
        const std::string content = readWholeFile(path_);
        const auto scan = scanContent(content, path_);
        if (scan.validBytes < content.size())
            fatalIf(::truncate(path_.c_str(),
                               static_cast<off_t>(scan.validBytes)) !=
                        0,
                    ErrorCode::Io,
                    "cannot truncate torn journal tail: " + path_ +
                        ": " + std::strerror(errno));
    }
    fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    fatalIf(fd_ < 0, ErrorCode::Io,
            "cannot open journal for append: " + path_ + ": " +
                std::strerror(errno));
}

AppendFile::~AppendFile()
{
    if (fd_ >= 0)
        ::close(fd_);
}

void
AppendFile::append(const std::string& json)
{
    const std::string line = frameLine(json);
    std::lock_guard<std::mutex> lock(mutex_);
    fault::checkIo(sitePrefix_ + ".write",
                   "appending to journal " + path_);
    // One write(2) per line: a crash tears at most the final line,
    // which the scanner and the constructor's truncation tolerate.
    std::size_t off = 0;
    while (off < line.size()) {
        const ssize_t n =
            ::write(fd_, line.data() + off, line.size() - off);
        if (n < 0 && errno == EINTR)
            continue;
        fatalIf(n <= 0, ErrorCode::Io,
                "journal write failed: " + path_ + ": " +
                    std::strerror(errno));
        off += static_cast<std::size_t>(n);
    }
    fatalIf(::fsync(fd_) != 0, ErrorCode::Io,
            "journal fsync failed: " + path_ + ": " +
                std::strerror(errno));
}

} // namespace mrp::journal
