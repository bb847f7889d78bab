#include "telemetry/export.hpp"

#include <algorithm>
#include <map>

#include "util/json_fields.hpp"
#include "util/json_writer.hpp"
#include "util/logging.hpp"

namespace mrp::telemetry {

namespace {

/** First dot-separated segment of a metric name. */
std::string
componentOf(const std::string& name)
{
    const auto dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(0, dot);
}

/** Metric name with its component prefix stripped. */
std::string
leafOf(const std::string& name)
{
    const auto dot = name.find('.');
    return dot == std::string::npos ? name : name.substr(dot + 1);
}

constexpr std::tuple kHistogramFields{
    json::Field{"bounds", &HistogramSnapshot::bounds},
    json::Field{"counts", &HistogramSnapshot::counts},
    json::Field{"overflow", &HistogramSnapshot::overflow},
    json::Field{"total", &HistogramSnapshot::total},
    json::Field{"sum", &HistogramSnapshot::sum},
};

/** One `"section": { ... }` of name->value lines. */
template <typename Pred, typename Emit>
void
appendSection(std::string& out, const Snapshot& snap,
              const std::string& section, const std::string& indent,
              bool& first_section, Pred pred, Emit emit)
{
    if (!first_section)
        out += ",\n";
    first_section = false;
    out += indent + "  \"" + section + "\": {";
    bool first = true;
    for (const auto& m : snap.metrics) {
        if (!pred(m))
            continue;
        out += first ? "\n" : ",\n";
        first = false;
        out += indent + "    " + json::str(m.name) + ": ";
        emit(out, m);
    }
    if (!first)
        out += "\n" + indent + "  ";
    out += "}";
}

/** The three counters/gauges/histograms sections, shared between
 * metricsJson and snapshotJson. */
void
appendSnapshotSections(std::string& out, const Snapshot& snap,
                       const std::string& indent, bool& first_section)
{
    using Kind = MetricSnapshot::Kind;
    appendSection(
        out, snap, "counters", indent, first_section,
        [](const MetricSnapshot& m) { return m.kind == Kind::Counter; },
        [](std::string& o, const MetricSnapshot& m) {
            o += std::to_string(m.counter);
        });
    appendSection(
        out, snap, "gauges", indent, first_section,
        [](const MetricSnapshot& m) { return m.kind == Kind::Gauge; },
        [](std::string& o, const MetricSnapshot& m) {
            o += json::formatDouble(m.gauge);
        });
    appendSection(
        out, snap, "histograms", indent, first_section,
        [](const MetricSnapshot& m) {
            return m.kind == Kind::Histogram;
        },
        [](std::string& o, const MetricSnapshot& m) {
            o += '{';
            o += json::fieldsJson(m.histogram, kHistogramFields);
            o += '}';
        });
}

} // namespace

std::string
metricsJson(const RunTelemetry& t, const std::string& indent)
{
    std::string out = "{\n";
    out += indent + "  \"accesses\": " + std::to_string(t.accesses) +
           ",\n";
    out += indent +
           "  \"epochAccesses\": " + std::to_string(t.epochAccesses) +
           ",\n";
    out += indent +
           "  \"epochs\": " + std::to_string(t.epochs.size());
    // The scalar header is already emitted, so every section —
    // including the first — needs the separating comma.
    bool first_section = false;
    appendSnapshotSections(out, t.finalSnapshot, indent,
                           first_section);
    out += "\n" + indent + "}";
    return out;
}

std::string
snapshotJson(const Snapshot& s, const std::string& indent)
{
    std::string out = "{\n";
    bool first_section = true;
    appendSnapshotSections(out, s, indent, first_section);
    out += "\n" + indent + "}";
    return out;
}

std::vector<std::string>
metricsCsvRows(const RunTelemetry& t)
{
    using Kind = MetricSnapshot::Kind;
    std::vector<std::string> rows;
    for (const auto& m : t.finalSnapshot.metrics) {
        switch (m.kind) {
          case Kind::Counter:
            rows.push_back(m.name + "," + std::to_string(m.counter));
            break;
          case Kind::Gauge:
            rows.push_back(m.name + "," + json::formatDouble(m.gauge));
            break;
          case Kind::Histogram: {
            const auto& h = m.histogram;
            for (std::size_t i = 0; i < h.bounds.size(); ++i)
                rows.push_back(m.name + ".le." +
                               std::to_string(h.bounds[i]) + "," +
                               std::to_string(h.counts[i]));
            rows.push_back(m.name + ".overflow," +
                           std::to_string(h.overflow));
            rows.push_back(m.name + ".total," +
                           std::to_string(h.total));
            rows.push_back(m.name + ".sum," + std::to_string(h.sum));
            break;
          }
        }
    }
    return rows;
}

namespace {

/** args of one component's epoch event: deltas for monotonic values,
 * point values for gauges. */
std::string
epochArgs(const std::string& component, const Snapshot& cur,
          const Snapshot* prev)
{
    using Kind = MetricSnapshot::Kind;
    std::string out = "{";
    bool first = true;
    const auto add = [&](const std::string& key,
                         const std::string& value) {
        if (!first)
            out += ", ";
        first = false;
        out += json::str(key) + ": " + value;
    };
    for (const auto& m : cur.metrics) {
        if (componentOf(m.name) != component)
            continue;
        const MetricSnapshot* p = prev ? prev->find(m.name) : nullptr;
        switch (m.kind) {
          case Kind::Counter:
            add(leafOf(m.name),
                std::to_string(m.counter - (p ? p->counter : 0)));
            break;
          case Kind::Gauge:
            add(leafOf(m.name), json::formatDouble(m.gauge));
            break;
          case Kind::Histogram: {
            const std::uint64_t prev_total =
                p ? p->histogram.total : 0;
            const std::int64_t prev_sum = p ? p->histogram.sum : 0;
            add(leafOf(m.name) + ".total",
                std::to_string(m.histogram.total - prev_total));
            add(leafOf(m.name) + ".sum",
                std::to_string(m.histogram.sum - prev_sum));
            break;
          }
        }
    }
    out += "}";
    return out;
}

} // namespace

std::string
traceEvents(const RunTelemetry& t, unsigned pid,
            const std::string& processName)
{
    // Components in name order (the snapshot is name-sorted already).
    std::map<std::string, unsigned> tids;
    for (const auto& m : t.finalSnapshot.metrics) {
        const std::string c = componentOf(m.name);
        if (!tids.count(c))
            tids.emplace(c, static_cast<unsigned>(tids.size()) + 1);
    }

    std::string out = "{\"name\": \"process_name\", \"ph\": \"M\", "
                      "\"pid\": " +
                      std::to_string(pid) +
                      ", \"tid\": 0, \"args\": {\"name\": " +
                      json::str(processName) + "}}";
    for (const auto& [component, tid] : tids)
        out += ",\n{\"name\": \"thread_name\", \"ph\": \"M\", "
               "\"pid\": " +
               std::to_string(pid) +
               ", \"tid\": " + std::to_string(tid) +
               ", \"args\": {\"name\": " + json::str(component) + "}}";

    for (std::size_t e = 0; e < t.epochs.size(); ++e) {
        const std::uint64_t ts =
            e == 0 ? 0 : t.epochs[e - 1].accesses;
        const std::uint64_t dur = t.epochs[e].accesses - ts;
        const Snapshot* prev =
            e == 0 ? nullptr : &t.epochs[e - 1].snapshot;
        for (const auto& [component, tid] : tids) {
            out += ",\n{\"name\": " + json::str(component) +
                   ", \"cat\": \"mrp\", \"ph\": \"X\", \"pid\": " +
                   std::to_string(pid) +
                   ", \"tid\": " + std::to_string(tid) +
                   ", \"ts\": " + std::to_string(ts) +
                   ", \"dur\": " + std::to_string(dur) +
                   ", \"args\": " +
                   epochArgs(component, t.epochs[e].snapshot, prev) +
                   "}";
        }
    }
    return out;
}

std::string
traceEventsJson(const RunTelemetry& t, const std::string& processName)
{
    return "{\"traceEvents\": [\n" + traceEvents(t, 0, processName) +
           "\n], \"displayTimeUnit\": \"ms\"}\n";
}

// --- read side ------------------------------------------------------

Snapshot
snapshotFromJson(const json::Value& v, const std::string& what)
{
    fatalIf(!v.isObject(), ErrorCode::CorruptInput,
            what + ": snapshot must be a JSON object");
    const auto section = [&](const char* key) -> const auto& {
        return v.require(key, json::Value::Type::Object, what).members;
    };
    Snapshot s;
    for (const auto& [name, val] : section("counters")) {
        MetricSnapshot m;
        m.name = name;
        m.kind = MetricSnapshot::Kind::Counter;
        m.counter = val.asInteger<std::uint64_t>(what + ": " + name);
        s.metrics.push_back(std::move(m));
    }
    for (const auto& [name, val] : section("gauges")) {
        MetricSnapshot m;
        m.name = name;
        m.kind = MetricSnapshot::Kind::Gauge;
        m.gauge = val.asReal(what + ": " + name);
        s.metrics.push_back(std::move(m));
    }
    for (const auto& [name, val] : section("histograms")) {
        MetricSnapshot m;
        m.name = name;
        m.kind = MetricSnapshot::Kind::Histogram;
        auto& h = m.histogram;
        json::readFields(val, what + ": histogram \"" + name + "\"", h,
                         kHistogramFields);
        fatalIf(h.bounds.size() != h.counts.size(),
                ErrorCode::CorruptInput,
                what + ": histogram \"" + name +
                    "\" bounds/counts length mismatch");
        s.metrics.push_back(std::move(m));
    }
    std::sort(s.metrics.begin(), s.metrics.end(),
              [](const MetricSnapshot& a, const MetricSnapshot& b) {
                  return a.name < b.name;
              });
    for (std::size_t i = 1; i < s.metrics.size(); ++i)
        fatalIf(s.metrics[i - 1].name == s.metrics[i].name,
                ErrorCode::CorruptInput,
                what + ": duplicate metric name \"" +
                    s.metrics[i].name + "\"");
    return s;
}

void
mergeInto(Snapshot& into, const Snapshot& from)
{
    using Kind = MetricSnapshot::Kind;
    for (const auto& m : from.metrics) {
        const auto it = std::lower_bound(
            into.metrics.begin(), into.metrics.end(), m.name,
            [](const MetricSnapshot& a, const std::string& name) {
                return a.name < name;
            });
        if (it == into.metrics.end() || it->name != m.name) {
            into.metrics.insert(it, m);
            continue;
        }
        fatalIf(it->kind != m.kind, ErrorCode::CorruptInput,
                "snapshot merge: metric \"" + m.name +
                    "\" has conflicting kinds");
        switch (m.kind) {
          case Kind::Counter:
            it->counter += m.counter;
            break;
          case Kind::Gauge:
            it->gauge = std::max(it->gauge, m.gauge);
            break;
          case Kind::Histogram: {
            fatalIf(it->histogram.bounds != m.histogram.bounds,
                    ErrorCode::CorruptInput,
                    "snapshot merge: histogram \"" + m.name +
                        "\" bounds differ");
            for (std::size_t i = 0; i < m.histogram.counts.size();
                 ++i)
                it->histogram.counts[i] += m.histogram.counts[i];
            it->histogram.overflow += m.histogram.overflow;
            it->histogram.total += m.histogram.total;
            it->histogram.sum += m.histogram.sum;
            break;
          }
        }
    }
}

} // namespace mrp::telemetry
