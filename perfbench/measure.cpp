#include "measure.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

double
cpuSeconds(const rusage& ru)
{
    const auto tv = [](const timeval& t) {
        return static_cast<double>(t.tv_sec) +
               static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(ru.ru_utime) + tv(ru.ru_stime);
}

} // namespace

TrialMeter::TrialMeter()
{
    getrusage(RUSAGE_SELF, &ru0_);
    t0_ = Clock::now();
}

TrialSample
TrialMeter::stop() const
{
    TrialSample s;
    s.wallS = secondsSince(t0_);
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    s.cpuS = cpuSeconds(ru) - cpuSeconds(ru0_);
    s.involuntary = ru.ru_nivcsw - ru0_.ru_nivcsw;
    return s;
}

bool
suspect(const TrialSample& t, double threads)
{
    if (t.wallS <= 0.0)
        return false;
    return t.cpuS < 0.85 * threads * t.wallS ||
           static_cast<double>(t.involuntary) > 50.0 * t.wallS;
}

namespace {

/** The probe's fixed work: 300k accesses to a 2048-set, 16-way model. */
double
probeKernelMs()
{
    constexpr std::uint32_t kSets = 2048, kWays = 16, kWeights = 4096;
    static std::vector<std::uint64_t> tag(kSets * kWays, ~0ull);
    static std::vector<std::uint32_t> stamp(kSets * kWays, 0);
    static std::vector<std::int8_t> weight(16 * kWeights, 0);
    static std::uint32_t clock = 0;
    const auto t0 = Clock::now();
    std::uint64_t x = 12345;
    for (std::uint32_t i = 0; i < 300000; ++i) {
        x = x * 6364136223846793005ull + 1;
        const std::uint64_t addr = (i & 3) != 0
                                       ? std::uint64_t{i} * 64 % (8u << 20)
                                       : (x >> 20) % (16u << 20);
        const std::uint64_t pc = (x >> 40) & 0xfff;
        const std::uint64_t blk = addr >> 6;
        std::uint64_t* t = &tag[blk % kSets * kWays];
        std::uint32_t* st = &stamp[blk % kSets * kWays];
        int sum = 0;
        for (std::uint32_t f = 0; f < 16; ++f)
            sum += weight[f * kWeights + ((pc >> f) ^ (blk >> (f + 2))) %
                                             kWeights];
        ++clock;
        std::uint32_t way = kWays;
        for (std::uint32_t k = 0; k < kWays && way == kWays; ++k)
            if (t[k] == blk)
                way = k;
        const bool hit = way != kWays;
        if (!hit) {
            way = 0;
            for (std::uint32_t k = 1; k < kWays; ++k)
                if (st[k] < st[way])
                    way = k;
            t[way] = blk;
        }
        st[way] = clock;
        weight[((hit ? pc : pc * 7) ^ blk) % kWeights] +=
            (sum > 0) == hit ? -1 : 1;
    }
    return 1e3 * secondsSince(t0);
}

} // namespace

void
HostProbe::maybeSample(double every_s)
{
    if (ms_.empty() || secondsSince(last_) >= every_s)
        sample();
}

void
HostProbe::sample()
{
    ms_.push_back(probeKernelMs());
    last_ = Clock::now();
}

double
HostProbe::scale() const
{
    return ms_.empty() ? 1.0 : kReferenceMs / median(ms_);
}

double
HostProbe::lastScale() const
{
    return ms_.empty() ? 1.0 : kReferenceMs / ms_.back();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double>
quartiles(std::vector<double> v)
{
    // statistics.quantiles' default "exclusive" method.
    std::sort(v.begin(), v.end());
    const long ld = static_cast<long>(v.size());
    if (ld < 2)
        return {median(v), median(v), median(v)};
    const long m = ld + 1;
    std::vector<double> out;
    for (long i = 1; i < 4; ++i) {
        long j = i * m / 4;
        const long delta = i * m - j * 4;
        j = std::clamp(j, 1L, ld - 1);
        out.push_back((v[j - 1] * static_cast<double>(4 - delta) +
                       v[j] * static_cast<double>(delta)) /
                      4.0);
    }
    return out;
}

double
iqrPercent(const std::vector<double>& v)
{
    const double med = median(v);
    if (med == 0.0)
        return 0.0;
    const auto q = quartiles(v);
    return 100.0 * (q[2] - q[0]) / med;
}

Tail
tail(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    const std::size_t rank = n >= 100 ? (9 * n + 9) / 10 - 1 // ceil(0.9n)
                             : n > 10 ? n - 11
                                      : 0;
    t.value = v[rank];
    t.above = n - 1 - rank;
    t.percentile = 100.0 * static_cast<double>(rank + 1) /
                   static_cast<double>(n);
    return t;
}

double
geomean(const std::vector<double>& v, double floor)
{
    if (v.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const double x : v)
        log_sum += std::log(std::max(x, floor));
    return std::exp(log_sum / static_cast<double>(v.size()));
}

void
RunReport::fail(const std::string& why, std::uint64_t n)
{
    failed += n;
    if (std::find(failures.begin(), failures.end(), why) ==
        failures.end())
        failures.push_back(why);
}

void
RunReport::add(std::string name, double value, std::string unit,
               std::string note)
{
    metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(note), false});
}

void
RunReport::layer(std::string name, double value, std::string unit,
                 std::string note)
{
    metrics.push_back(
        {std::move(name), value, std::move(unit), std::move(note), true});
}

} // namespace perfbench
