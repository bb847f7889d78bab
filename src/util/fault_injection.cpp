#include "util/fault_injection.hpp"

#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>
#include <new>
#include <thread>
#include <unordered_map>

#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/parse_number.hpp"
#include "util/rng.hpp"

namespace mrp::fault {

namespace {

struct SiteState
{
    Spec spec;
    bool armed = false;
    std::uint64_t hits = 0;
    std::uint64_t fires = 0;
};

// The registry is deliberately simple: one mutex guarding a map. Sites
// sit on I/O and batch-dispatch paths, not in simulation inner loops,
// and the unarmed fast path never takes the lock.
std::mutex g_mutex;
std::unordered_map<std::string, SiteState> g_sites;
std::atomic<int> g_armed_count{0};

/**
 * Count a visit to @p site and decide whether it fires. Returns the
 * armed Spec by value when it does, so the caller can act after the
 * lock is released (stalls must not sleep holding the registry lock).
 */
bool
visit(const std::string& site, Kind kind, Spec* fired)
{
    if (g_armed_count.load(std::memory_order_relaxed) == 0)
        return false;
    std::lock_guard<std::mutex> lock(g_mutex);
    auto it = g_sites.find(site);
    if (it == g_sites.end() || !it->second.armed ||
        it->second.spec.kind != kind)
        return false;
    SiteState& s = it->second;
    ++s.hits;
    if (s.hits < s.spec.firstHit)
        return false;
    if (s.spec.maxFires >= 0 &&
        s.fires >= static_cast<std::uint64_t>(s.spec.maxFires))
        return false;
    ++s.fires;
    *fired = s.spec;
    return true;
}

} // namespace

void
arm(const std::string& site, const Spec& spec)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    SiteState& s = g_sites[site];
    if (!s.armed)
        g_armed_count.fetch_add(1, std::memory_order_relaxed);
    s.spec = spec;
    s.armed = true;
    s.hits = 0;
    s.fires = 0;
}

void
armFromSpec(const std::string& spec_text)
{
    std::vector<std::string> parts;
    std::size_t pos = 0;
    while (pos <= spec_text.size()) {
        const auto colon = spec_text.find(':', pos);
        if (colon == std::string::npos) {
            parts.push_back(spec_text.substr(pos));
            break;
        }
        parts.push_back(spec_text.substr(pos, colon - pos));
        pos = colon + 1;
    }
    fatalIf(parts.size() < 2 || parts.size() > 5 ||
                parts[0].empty(),
            ErrorCode::Config,
            "fault spec \"" + spec_text +
                "\" is not SITE:KIND[:FIRSTHIT[:MAXFIRES"
                "[:STALLMS]]]");
    Spec spec;
    if (parts[1] == "io")
        spec.kind = Kind::IoError;
    else if (parts[1] == "stall")
        spec.kind = Kind::Stall;
    else if (parts[1] == "alloc")
        spec.kind = Kind::AllocFail;
    else if (parts[1] == "corrupt")
        spec.kind = Kind::CorruptByte;
    else
        fatal(ErrorCode::Config,
              "fault spec \"" + spec_text +
                  "\": kind must be io|stall|alloc|corrupt");
    if (parts.size() > 2)
        spec.firstHit = flagInteger<std::uint64_t>(
            "fault spec \"" + spec_text + "\" FIRSTHIT", parts[2]);
    if (parts.size() > 3)
        spec.maxFires = flagInteger<std::int64_t>(
            "fault spec \"" + spec_text + "\" MAXFIRES", parts[3]);
    if (parts.size() > 4)
        spec.stallMillis = flagInteger<unsigned>(
            "fault spec \"" + spec_text + "\" STALLMS", parts[4]);
    arm(parts[0], spec);
}

void
disarm(const std::string& site)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    auto it = g_sites.find(site);
    if (it != g_sites.end() && it->second.armed) {
        it->second.armed = false;
        g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
}

void
disarmAll()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    for (auto& [site, state] : g_sites)
        if (state.armed)
            g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    g_sites.clear();
}

bool
anyArmed()
{
    return g_armed_count.load(std::memory_order_relaxed) != 0;
}

std::uint64_t
hits(const std::string& site)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    auto it = g_sites.find(site);
    return it == g_sites.end() ? 0 : it->second.hits;
}

std::uint64_t
fires(const std::string& site)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    auto it = g_sites.find(site);
    return it == g_sites.end() ? 0 : it->second.fires;
}

void
checkIo(const std::string& site, const std::string& what)
{
    Spec spec;
    if (visit(site, Kind::IoError, &spec))
        fatal(ErrorCode::Io,
              "injected I/O failure: " + what + " [" + site + "]");
}

void
checkAlloc(const std::string& site)
{
    Spec spec;
    if (visit(site, Kind::AllocFail, &spec))
        throw std::bad_alloc();
}

void
checkStall(const std::string& site)
{
    Spec spec;
    if (visit(site, Kind::Stall, &spec))
        std::this_thread::sleep_for(
            std::chrono::milliseconds(spec.stallMillis));
}

void
checkCorrupt(const std::string& site, void* data, std::size_t size)
{
    Spec spec;
    if (!visit(site, Kind::CorruptByte, &spec) || size == 0)
        return;
    // Seed with the fire ordinal so repeated fires of one armed site
    // corrupt different (but replayable) positions.
    Rng rng(spec.seed ^ mix64(fires(site)));
    const std::size_t pos =
        static_cast<std::size_t>(rng.below(size));
    const unsigned bit = static_cast<unsigned>(rng.below(8));
    static_cast<unsigned char*>(data)[pos] ^=
        static_cast<unsigned char>(1u << bit);
}

Scoped::Scoped(std::string site, const Spec& spec)
    : site_(std::move(site))
{
    arm(site_, spec);
}

Scoped::~Scoped()
{
    disarm(site_);
}

} // namespace mrp::fault
