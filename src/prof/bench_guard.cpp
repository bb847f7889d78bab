#include "prof/bench_guard.hpp"

#include <cstdio>

#include "util/logging.hpp"

namespace mrp::prof {

namespace {

using json::Value;

const Value&
checkSchema(const Value& doc, const std::string& what)
{
    fatalIf(!doc.isObject(), ErrorCode::CorruptInput,
            what + ": not a JSON object");
    const std::string& schema = doc.str("schema", what);
    fatalIf(schema != "mrp-bench-v1", ErrorCode::CorruptInput,
            what + ": unsupported schema \"" + schema + "\"");
    return doc.require("runs", Value::Type::Array, what);
}

const Value*
findRun(const Value& runs, const std::string& label)
{
    for (const Value& r : runs.array)
        if (const Value* l = r.get("label");
            l && l->isString() && l->string == label)
            return &r;
    return nullptr;
}

/** Walk baseline phases depth-first, pairing with candidate phases. */
void
comparePhases(const Value& base, const Value* cand,
              const std::string& path, const std::string& run_label,
              const GuardOptions& opts, GuardResult* out)
{
    const std::string& label = base.str("label", "baseline phase");
    const std::string here =
        path.empty() ? label : path + "/" + label;

    const double base_incl =
        base.real("inclusiveSeconds", "baseline phase");

    if (!cand) {
        if (base_incl >= opts.minSeconds)
            out->findings.push_back({Finding::Kind::Missing, run_label,
                                     here, base_incl, 0.0});
        return;
    }

    const double cand_incl =
        cand->real("inclusiveSeconds", "candidate phase");
    if (base_incl >= opts.minSeconds) {
        ++out->metricsCompared;
        if (cand_incl > base_incl * (1.0 + opts.tolerance))
            out->findings.push_back({Finding::Kind::Regression,
                                     run_label, here, base_incl,
                                     cand_incl});
        else if (cand_incl < base_incl * (1.0 - opts.tolerance))
            out->findings.push_back({Finding::Kind::Improvement,
                                     run_label, here, base_incl,
                                     cand_incl});
    }

    const Value* base_children = base.get("children");
    if (!base_children || !base_children->isArray())
        return;
    const Value* cand_children = cand->get("children");
    for (const Value& bc : base_children->array) {
        const Value* match = nullptr;
        if (cand_children && cand_children->isArray()) {
            const Value* bl = bc.get("label");
            for (const Value& cc : cand_children->array) {
                const Value* cl = cc.get("label");
                if (bl && cl && bl->isString() && cl->isString() &&
                    bl->string == cl->string) {
                    match = &cc;
                    break;
                }
            }
        }
        comparePhases(bc, match, here, run_label, opts, out);
    }
}

void
compareRate(const Value& base, const Value& cand, const char* name,
            const std::string& run_label, const GuardOptions& opts,
            GuardResult* out)
{
    const Value* b = base.get(name);
    const Value* c = cand.get(name);
    if (!b || !c || !b->isNumber() || !c->isNumber() ||
        b->number <= 0.0)
        return;
    ++out->metricsCompared;
    // Rates regress by shrinking.
    if (c->number < b->number * (1.0 - opts.tolerance))
        out->findings.push_back({Finding::Kind::Regression, run_label,
                                 name, b->number, c->number});
    else if (c->number > b->number * (1.0 + opts.tolerance))
        out->findings.push_back({Finding::Kind::Improvement, run_label,
                                 name, b->number, c->number});
}

} // namespace

GuardResult
compare(const Value& baseline, const Value& candidate,
        const GuardOptions& opts)
{
    const Value& base_runs = checkSchema(baseline, "baseline BENCH");
    const Value& cand_runs = checkSchema(candidate, "candidate BENCH");

    GuardResult out;
    for (const Value& base_run : base_runs.array) {
        const std::string& label = base_run.str("label", "baseline run");
        const Value* cand_run = findRun(cand_runs, label);
        if (!cand_run) {
            out.findings.push_back(
                {Finding::Kind::Missing, label, "run", 0.0, 0.0});
            continue;
        }
        ++out.runsCompared;
        const Value* base_phases = base_run.get("phases");
        const Value* cand_phases = cand_run->get("phases");
        if (base_phases && base_phases->isObject())
            comparePhases(*base_phases, cand_phases, "", label, opts,
                          &out);
        if (opts.checkThroughput) {
            compareRate(base_run, *cand_run, "instsPerSecond", label,
                        opts, &out);
            compareRate(base_run, *cand_run, "accessesPerSecond", label,
                        opts, &out);
        }
    }
    return out;
}

std::string
formatFindings(const GuardResult& result, const GuardOptions& opts)
{
    std::string out;
    char line[512];
    int regressions = 0;
    for (const Finding& f : result.findings) {
        const char* tag = "?";
        switch (f.kind) {
        case Finding::Kind::Regression:
            tag = "REGRESSION";
            ++regressions;
            break;
        case Finding::Kind::Improvement: tag = "improvement"; break;
        case Finding::Kind::Missing:
            tag = "MISSING";
            ++regressions;
            break;
        }
        if (f.kind == Finding::Kind::Missing) {
            std::snprintf(line, sizeof(line), "%-11s %s: %s\n", tag,
                          f.run.c_str(), f.metric.c_str());
        } else {
            const double pct =
                f.baseline > 0.0
                    ? (f.candidate / f.baseline - 1.0) * 100.0
                    : 0.0;
            std::snprintf(line, sizeof(line),
                          "%-11s %s: %s  %.6g -> %.6g  (%+.1f%%)\n",
                          tag, f.run.c_str(), f.metric.c_str(),
                          f.baseline, f.candidate, pct);
        }
        out += line;
    }
    std::snprintf(line, sizeof(line),
                  "%d run(s), %d metric(s) compared at +/-%.0f%% "
                  "tolerance: %s\n",
                  result.runsCompared, result.metricsCompared,
                  opts.tolerance * 100.0,
                  regressions == 0 ? "OK" : "REGRESSED");
    out += line;
    return out;
}

} // namespace mrp::prof
