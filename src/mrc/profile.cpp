#include "mrc/profile.hpp"

#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::mrc {

double
MrcProfile::missRatioAt(Addr bytes) const
{
    for (const auto& p : points)
        if (p.bytes == bytes)
            return p.missRatio;
    fatal(ErrorCode::Config,
          "capacity " + std::to_string(bytes) +
              " bytes was not profiled for '" + benchmark + "'");
}

namespace {

std::string
profileBody(const MrcProfile& p)
{
    std::string out = "{";
    out += json::key("schema") + json::str(kMrcSchema) + ", ";
    out += json::key("benchmark") + json::str(p.benchmark) + ", ";
    out += json::key("mode") + json::str(p.mode) + ", ";
    out += json::key("instructions") + std::to_string(p.instructions) +
           ", ";
    out += json::key("demandSamples") +
           std::to_string(p.demandSamples) + ", ";
    out += json::key("sampledSamples") +
           std::to_string(p.sampledSamples) + ", ";
    out += json::key("coldSamples") + std::to_string(p.coldSamples) +
           ", ";
    out += json::key("samplingRate") +
           json::formatDouble(p.samplingRate) + ", ";
    out += json::key("maxSamples") + std::to_string(p.maxSamples) +
           ", ";
    out += json::key("samplerPeakOccupancy") +
           std::to_string(p.samplerPeakOccupancy) + ", ";
    out += json::key("samplerEvictions") +
           std::to_string(p.samplerEvictions) + ", ";
    out += json::key("points") + "[";
    for (std::size_t i = 0; i < p.points.size(); ++i) {
        if (i)
            out += ", ";
        out += json::firstKey("bytes") +
               std::to_string(p.points[i].bytes) + ", " +
               json::key("missRatio") +
               json::formatDouble(p.points[i].missRatio) + "}";
    }
    out += "]}";
    return out;
}

} // namespace

std::string
MrcProfile::toJson() const
{
    return profileBody(*this) + "\n";
}

std::string
corpusJson(const std::vector<MrcProfile>& profiles)
{
    std::string out = json::firstKey("schema") + json::str(kMrcSchema) +
                      ", " + json::key("profiles") + "[";
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        if (i)
            out += ", ";
        out += profileBody(profiles[i]);
    }
    out += "]}\n";
    return out;
}

} // namespace mrp::mrc
