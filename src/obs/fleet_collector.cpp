#include "obs/fleet_collector.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "prof/export.hpp"
#include "telemetry/export.hpp"
#include "util/json_writer.hpp"
#include "util/trace_event.hpp"

namespace mrp::obs {

namespace {

/** Median of an unsorted sample (copy is sorted here); 0 if empty. */
double
medianOf(std::vector<double> xs)
{
    if (xs.empty())
        return 0.0;
    std::sort(xs.begin(), xs.end());
    const std::size_t mid = xs.size() / 2;
    if (xs.size() % 2)
        return xs[mid];
    return (xs[mid - 1] + xs[mid]) / 2.0;
}

/** One sortable trace_event line; seq breaks ts/pid/tid ties with
 * emission order so the output is fully deterministic. */
struct Event
{
    double ts = 0.0;
    unsigned pid = 0;
    unsigned tid = 0;
    std::uint64_t seq = 0;
    std::string json;
};

} // namespace

FleetCollector::FleetCollector(FleetConfig cfg) : cfg_(std::move(cfg))
{
    if (!cfg_.clock) {
        const auto start = std::chrono::steady_clock::now();
        cfg_.clock = [start]() {
            return std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                .count();
        };
    }
}

std::uint64_t
FleetCollector::batchStarted(const std::string& fingerprint)
{
    if (trace_id_ == 0)
        trace_id_ = deriveTraceId(fingerprint);
    return batches_++;
}

void
FleetCollector::workerStarted(unsigned slot, std::uint64_t pid)
{
    WorkerState& w = worker(slot);
    w.pid = pid;
    w.starts.emplace_back(now(), pid);
}

void
FleetCollector::workerRestarted(unsigned slot, std::uint64_t pid)
{
    WorkerState& w = worker(slot);
    w.pid = pid;
    w.starts.emplace_back(now(), pid);
    ++w.restarts;
}

void
FleetCollector::leaseGranted(unsigned slot, std::uint64_t job_id,
                             std::uint64_t span_id, unsigned attempt,
                             const std::string& label)
{
    const double t = now();
    Span s;
    s.spanId = span_id;
    s.jobId = job_id;
    s.attempt = attempt;
    s.worker = slot;
    s.label = label;
    s.startSeconds = t;
    open_[span_id] = spans_.size();
    spans_.push_back(std::move(s));
    WorkerState& w = worker(slot);
    if (!w.leased) {
        w.leased = true;
        w.firstLease = t;
    }
}

FleetCollector::Span*
FleetCollector::openSpan(std::uint64_t span_id)
{
    const auto it = open_.find(span_id);
    return it == open_.end() ? nullptr : &spans_[it->second];
}

void
FleetCollector::heartbeat(unsigned slot, std::uint64_t span_id)
{
    if (Span* s = openSpan(span_id))
        s->beats.push_back(now());
    ++worker(slot).heartbeats;
}

void
FleetCollector::workerObs(unsigned slot, std::uint64_t span_id,
                          WorkerRunObs obs)
{
    (void)slot;
    if (Span* s = openSpan(span_id))
        s->obs = std::move(obs);
}

void
FleetCollector::spanClosed(unsigned slot, std::uint64_t span_id,
                           const std::string& outcome,
                           const std::string& reason)
{
    Span* s = openSpan(span_id);
    if (!s)
        return;
    const double t = now();
    s->closed = true;
    s->endSeconds = t;
    s->outcome = outcome;
    s->reason = reason;
    open_.erase(span_id);
    WorkerState& w = worker(slot);
    w.lastClose = t;
    if (outcome != "lease_expired") {
        ++w.jobsClosed;
        w.serviceMs.push_back((t - s->startSeconds) * 1e3);
    }
}

void
FleetCollector::requeued(unsigned slot)
{
    ++worker(slot).requeued;
}

void
FleetCollector::leaseExpired(unsigned slot)
{
    ++worker(slot).leaseExpired;
}

void
FleetCollector::requeueExhausted(unsigned slot)
{
    ++worker(slot).requeueExhausted;
}

telemetry::Snapshot
FleetCollector::fleetSnapshot() const
{
    using Kind = telemetry::MetricSnapshot::Kind;
    telemetry::Snapshot out;
    const auto add = [&](const std::string& name, Kind kind) {
        telemetry::MetricSnapshot m;
        m.name = name;
        m.kind = kind;
        out.metrics.push_back(std::move(m));
        return &out.metrics.back();
    };
    for (const auto& [slot, w] : workers_) {
        const std::string sfx = ".worker" + std::to_string(slot);
        add("queue.heartbeats" + sfx, Kind::Counter)->counter =
            w.heartbeats;
        add("queue.jobs" + sfx, Kind::Counter)->counter = w.jobsClosed;

        telemetry::Histogram h(telemetry::powerOfTwoBounds(14));
        for (const double ms : w.serviceMs)
            h.record(static_cast<std::int64_t>(ms));
        auto* lat = add("queue.lease_latency_ms" + sfx,
                        Kind::Histogram);
        lat->histogram.bounds = h.bounds();
        lat->histogram.counts.resize(h.bounds().size());
        for (std::size_t i = 0; i < h.bounds().size(); ++i)
            lat->histogram.counts[i] = h.bucketCount(i);
        lat->histogram.overflow = h.overflow();
        lat->histogram.total = h.total();
        lat->histogram.sum = h.sum();

        add("queue.lease_expired" + sfx, Kind::Counter)->counter =
            w.leaseExpired;
        add("queue.requeue_exhausted" + sfx, Kind::Counter)->counter =
            w.requeueExhausted;
        add("queue.requeued" + sfx, Kind::Counter)->counter =
            w.requeued;
        const double span = w.lastClose - w.firstLease;
        add("queue.throughput_jobs_per_s" + sfx, Kind::Gauge)->gauge =
            (w.leased && span > 0.0)
                ? static_cast<double>(w.jobsClosed) / span
                : 0.0;
        add("queue.worker_restarts" + sfx, Kind::Counter)->counter =
            w.restarts;
    }
    std::sort(out.metrics.begin(), out.metrics.end(),
              [](const telemetry::MetricSnapshot& a,
                 const telemetry::MetricSnapshot& b) {
                  return a.name < b.name;
              });
    return out;
}

telemetry::Snapshot
FleetCollector::mergedWorkerSnapshot() const
{
    telemetry::Snapshot out;
    for (const auto& s : spans_)
        if (s.obs && s.obs->metrics)
            telemetry::mergeInto(out, *s.obs->metrics);
    return out;
}

StragglerReport
FleetCollector::stragglerReport() const
{
    StragglerReport rep;
    rep.k = cfg_.stragglerK;
    std::vector<double> all;
    for (const auto& [slot, w] : workers_)
        all.insert(all.end(), w.serviceMs.begin(),
                   w.serviceMs.end());
    rep.fleetMedianMs = medianOf(all);
    std::vector<double> dev;
    dev.reserve(all.size());
    for (const double x : all)
        dev.push_back(std::fabs(x - rep.fleetMedianMs));
    rep.madMs = medianOf(std::move(dev));
    for (const auto& [slot, w] : workers_) {
        StragglerEntry e;
        e.worker = slot;
        e.jobs = w.jobsClosed;
        e.medianServiceMs = medianOf(w.serviceMs);
        if (rep.madMs > 0.0) {
            e.deviationMads =
                std::fabs(e.medianServiceMs - rep.fleetMedianMs) /
                rep.madMs;
            e.flagged = e.jobs > 0 && e.deviationMads >= rep.k;
        }
        rep.workers.push_back(e);
    }
    return rep;
}

std::string
FleetCollector::traceJson() const
{
    // Metadata first, in slot order: one trace process per worker
    // slot (pid = slot + 1; OS pids go in the span args — a restarted
    // slot is still one timeline).
    std::vector<std::string> out;
    for (const auto& [slot, w] : workers_) {
        const unsigned pid = slot + 1;
        out.push_back(trace_event::metadata(
            "process_name", pid, 0, "worker" + std::to_string(slot)));
        out.push_back(
            trace_event::metadata("thread_name", pid, 0, "lease"));
        out.push_back(
            trace_event::metadata("thread_name", pid, 1, "phases"));
    }

    std::vector<Event> events;
    std::uint64_t seq = 0;
    for (const auto& s : spans_) {
        const unsigned pid = s.worker + 1;
        const double start_us = s.startSeconds * 1e6;
        // A span never closed by the broker (study aborted mid-lease)
        // ends at its last known event and is marked "open".
        double end = s.endSeconds;
        std::string outcome = s.outcome;
        if (!s.closed) {
            end = s.beats.empty() ? s.startSeconds : s.beats.back();
            outcome = "open";
        }
        trace_event::Object args;
        args.add("jobId", s.jobId)
            .add("attempt", s.attempt)
            .add("trace", hex16(trace_id_))
            .add("span", hex16(s.spanId))
            .add("heartbeats", s.beats.size())
            .add("outcome", outcome);
        if (!s.reason.empty())
            args.add("reason", s.reason);
        if (s.obs) {
            args.add("wallSeconds", s.obs->wallSeconds)
                .add("accesses", s.obs->accesses);
            if (s.obs->truncated)
                args.add("truncated", true);
        }
        events.push_back(
            {start_us, pid, 0, seq++,
             trace_event::complete(s.label, "lease", pid, 0, start_us,
                                   (end - s.startSeconds) * 1e6,
                                   args)});

        for (const double b : s.beats) {
            const double ts = b * 1e6;
            events.push_back(
                {ts, pid, 0, seq++,
                 trace_event::instant(
                     "hb", "lease", pid, 0, ts,
                     trace_event::Object().add("span", hex16(s.spanId)))});
        }

        if (s.obs && s.obs->phases)
            prof::phaseEvents(*s.obs->phases, start_us, pid, 1,
                              [&](double ts, std::string e) {
                                  events.push_back(
                                      {ts, pid, 1, seq++, std::move(e)});
                              });
    }

    std::sort(events.begin(), events.end(),
              [](const Event& a, const Event& b) {
                  if (a.ts != b.ts)
                      return a.ts < b.ts;
                  if (a.pid != b.pid)
                      return a.pid < b.pid;
                  if (a.tid != b.tid)
                      return a.tid < b.tid;
                  return a.seq < b.seq;
              });
    for (auto& e : events)
        out.push_back(std::move(e.json));
    return trace_event::document(out);
}

std::string
FleetCollector::metricsJson(
    const telemetry::Snapshot* broker_snapshot) const
{
    const StragglerReport rep = stragglerReport();
    std::string out = "{\n";
    out += "  " + json::key("doc") + json::str("mrp-fleet-metrics-v1");
    out += ",\n  " + json::key("traceId") +
           json::str(hex16(trace_id_));
    out += ",\n  " + json::key("batches") + std::to_string(batches_);
    out += ",\n  " + json::key("spans") +
           std::to_string(spans_.size());
    out += ",\n  " + json::key("workers") +
           std::to_string(workers_.size());
    out += ",\n  " + json::key("fleet") +
           telemetry::snapshotJson(fleetSnapshot(), "  ");
    out += ",\n  " + json::key("workerRuns") +
           telemetry::snapshotJson(mergedWorkerSnapshot(), "  ");
    if (broker_snapshot)
        out += ",\n  " + json::key("broker") +
               telemetry::snapshotJson(*broker_snapshot, "  ");
    out += ",\n  " + json::key("stragglers") + "{\n";
    out += "    " + json::key("k") + json::formatDouble(rep.k);
    out += ",\n    " + json::key("fleetMedianMs") +
           json::formatDouble(rep.fleetMedianMs);
    out += ",\n    " + json::key("madMs") +
           json::formatDouble(rep.madMs);
    out += ",\n    " + json::key("workers") + "[";
    for (std::size_t i = 0; i < rep.workers.size(); ++i) {
        const StragglerEntry& e = rep.workers[i];
        out += i ? ",\n      " : "\n      ";
        out += json::firstKey("worker") + std::to_string(e.worker);
        out += ", " + json::key("jobs") + std::to_string(e.jobs);
        out += ", " + json::key("medianServiceMs") +
               json::formatDouble(e.medianServiceMs);
        out += ", " + json::key("deviationMads") +
               json::formatDouble(e.deviationMads);
        out += ", " + json::key("flagged") +
               (e.flagged ? "true" : "false") + "}";
    }
    out += rep.workers.empty() ? "]" : "\n    ]";
    out += "\n  }\n}";
    return out;
}

std::string
FleetCollector::stragglerText() const
{
    const StragglerReport rep = stragglerReport();
    std::string out = "fleet service time: median " +
                      json::formatDouble(rep.fleetMedianMs) +
                      " ms, MAD " + json::formatDouble(rep.madMs) +
                      " ms, straggler threshold " +
                      json::formatDouble(rep.k) + " MADs\n";
    for (const auto& e : rep.workers) {
        out += "  worker" + std::to_string(e.worker) + ": " +
               std::to_string(e.jobs) + " job(s), median " +
               json::formatDouble(e.medianServiceMs) + " ms, " +
               json::formatDouble(e.deviationMads) + " MADs" +
               (e.flagged ? "  ** STRAGGLER **" : "") + "\n";
    }
    return out;
}

} // namespace mrp::obs
