/**
 * @file
 * Serialization of RunTelemetry: a JSON metrics object, flat CSV
 * rows, and Chrome trace_event timelines.
 *
 * All output is deterministic — metrics are name-sorted by the
 * registry and doubles use the shared shortest-round-trip formatter —
 * so reports embedding these fragments stay byte-identical at any
 * worker count.
 *
 * Metrics JSON object (embedded per run under "metrics"):
 *   { "accesses": N, "epochAccesses": N, "epochs": N,
 *     "counters": { "name": N, ... },
 *     "gauges": { "name": X, ... },
 *     "histograms": { "name": { "bounds": [..], "counts": [..],
 *                               "overflow": N, "total": N,
 *                               "sum": N }, ... } }
 *
 * Trace events follow the Chrome trace_event "JSON object format":
 * one complete event ("ph": "X") per epoch per component, where a
 * component is the first dot-separated segment of a metric name
 * ("llc", "mpppb", "predictor", "prefetch"). ts/dur count LLC
 * accesses (rendered as microseconds); args carry per-epoch deltas
 * for counters and histogram totals and point values for gauges.
 */

#ifndef MRP_TELEMETRY_EXPORT_HPP
#define MRP_TELEMETRY_EXPORT_HPP

#include <string>
#include <vector>

#include "telemetry/session.hpp"
#include "util/json_reader.hpp"

namespace mrp::telemetry {

/**
 * The "metrics" JSON object for one run. @p indent prefixes every
 * line after the first (the caller places the first line).
 */
std::string metricsJson(const RunTelemetry& t, const std::string& indent);

/**
 * Just the counters/gauges/histograms sections of a snapshot as one
 * JSON object — the wire form a worker ships to the FleetCollector.
 * Same indent convention as metricsJson.
 */
std::string snapshotJson(const Snapshot& s, const std::string& indent);

/**
 * Inverse of snapshotJson. All three sections must be present (both
 * writers always emit them); anything malformed — wrong section
 * types, non-numeric values, bounds/counts length mismatch — throws
 * FatalError(ErrorCode::CorruptInput). Extra keys beside the sections
 * are ignored, so this also reads the object metricsJson produces.
 */
Snapshot snapshotFromJson(const json::Value& v,
                          const std::string& what);

/**
 * Merge @p from into @p into — the fleet aggregation semantics:
 * counters add, histograms add bucket-wise (the bounds must be
 * identical, else FatalError(ErrorCode::CorruptInput) — histograms
 * with different ladders have no meaningful sum), and gauges keep the
 * maximum (a fleet-level high-water; point-in-time values from
 * different processes have no meaningful sum). A name present in only
 * one side is kept as-is; the same name with different kinds is
 * corrupt input. Commutative and associative, so a fold over worker
 * snapshots is order-independent.
 */
void mergeInto(Snapshot& into, const Snapshot& from);

/**
 * Flat `metric,value` rows (no index column, no newlines) for CSV
 * embedding: counters and gauges one row each, histograms flattened
 * to `<name>.le.<bound>`, `<name>.overflow`, `<name>.total`,
 * `<name>.sum`.
 */
std::vector<std::string> metricsCsvRows(const RunTelemetry& t);

/**
 * Comma-joined trace events (no enclosing brackets) for one run:
 * a process_name metadata event plus one complete event per epoch
 * per component, all with the given @p pid and @p processName.
 */
std::string traceEvents(const RunTelemetry& t, unsigned pid,
                        const std::string& processName);

/** A complete single-run trace document loadable in Perfetto. */
std::string traceEventsJson(const RunTelemetry& t,
                            const std::string& processName);

} // namespace mrp::telemetry

#endif // MRP_TELEMETRY_EXPORT_HPP
