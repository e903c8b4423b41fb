#include "driver/compare.hh"

#include <stdexcept>

#include "driver/json.hh"
#include "net/registry.hh"
#include "workload/registry.hh"

namespace rnuma::driver
{

namespace
{

double
numberOr(const JsonValue *v, double fallback)
{
    return v && v->kind == JsonValue::Kind::Number ? v->number
                                                   : fallback;
}

std::string
stringOr(const JsonValue *v, const std::string &fallback)
{
    return v && v->kind == JsonValue::Kind::String ? v->str
                                                   : fallback;
}

/**
 * v6-v8 documents may carry "intra_jobs", the partition count of the
 * removed parallel intra-cell engine. 1 (or absent) is a serial run;
 * anything else was never tick-comparable to serial, so refuse it.
 */
void
refuseIntraJobs(const JsonValue *v, const std::string &where)
{
    if (!v || (v->kind == JsonValue::Kind::Number && v->number == 1))
        return;
    throw std::runtime_error(
        where + ": intra_jobs is not 1 (a run of the removed "
                "parallel intra-cell engine, not comparable to "
                "serial results)");
}

} // namespace

const ResultCell *
ResultFigure::find(const std::string &app,
                   const std::string &config) const
{
    for (const ResultCell &c : cells)
        if (c.app == app && c.config == config)
            return &c;
    return nullptr;
}

const ResultFigure *
ResultDoc::find(const std::string &name) const
{
    for (const ResultFigure &f : figures)
        if (f.name == name)
            return &f;
    return nullptr;
}

ResultDoc
loadResults(const std::string &json_text)
{
    JsonValue doc = parseJson(json_text);
    ResultDoc out;
    out.schema = stringOr(doc.get("schema"), "");
    if (out.schema != "rnuma-sweep-results/v8" &&
        out.schema != "rnuma-sweep-results/v7")
        throw std::runtime_error(
            "unsupported results schema '" + out.schema +
            "' (expected rnuma-sweep-results/v8 or /v7)");
    const JsonValue *figures = doc.get("figures");
    if (!figures || !figures->isArray())
        throw std::runtime_error("missing 'figures' array");
    for (const JsonValue &jf : figures->array) {
        ResultFigure f;
        f.name = stringOr(jf.get("name"), "?");
        f.scale = numberOr(jf.get("scale"), 1.0);
        f.jobs = static_cast<std::size_t>(
            numberOr(jf.get("jobs"), 1));
        f.wallMs = numberOr(jf.get("wall_ms"), 0);
        const JsonValue *cells = jf.get("cells");
        if (cells && cells->isArray()) {
            for (const JsonValue &jc : cells->array) {
                ResultCell c;
                c.app = stringOr(jc.get("app"), "?");
                c.config = stringOr(jc.get("config"), "?");
                std::string where =
                    f.name + "/" + c.app + "/" + c.config;
                c.protocol = stringOr(jc.get("protocol"), "");
                c.network = canonicalNetworkId(
                    stringOr(jc.get("network"), c.network));
                c.directory =
                    stringOr(jc.get("directory"), c.directory);
                c.workload = canonicalWorkloadId(
                    stringOr(jc.get("workload"), c.workload));
                refuseIntraJobs(jc.get("intra_jobs"), where);
                c.wallMs = numberOr(jc.get("wall_ms"), 0);
                const JsonValue *stats = jc.get("stats");
                const JsonValue *ev = stats ? stats->get("events")
                                            : nullptr;
                if (!ev || ev->kind != JsonValue::Kind::Number)
                    throw std::runtime_error(
                        where + ": cell has no stats.events");
                c.events = static_cast<std::uint64_t>(ev->number);
                c.ticks = static_cast<std::uint64_t>(
                    numberOr(stats->get("ticks"), 0));
                // The whole numeric stats object, for the
                // event-count gate; names follow statFields().
                for (const auto &kv : stats->object) {
                    if (kv.second.kind == JsonValue::Kind::Number)
                        c.counters[kv.first] =
                            static_cast<std::uint64_t>(
                                kv.second.number);
                }
                f.cells.push_back(std::move(c));
            }
        }
        out.figures.push_back(std::move(f));
    }
    return out;
}

ResultDoc
resultsOf(const std::vector<FigureRun> &runs)
{
    ResultDoc out;
    out.schema = "rnuma-sweep-results/v8";
    for (const FigureRun &run : runs) {
        ResultFigure f;
        f.name = run.name;
        f.scale = run.scale;
        f.jobs = run.jobs;
        f.wallMs = run.wallMs;
        for (const CellResult &c : run.result.cells) {
            ResultCell rc;
            rc.app = c.app;
            rc.config = c.config;
            rc.protocol = c.protocol;
            if (!c.network.empty())
                rc.network = c.network;
            if (!c.directory.empty())
                rc.directory = c.directory;
            rc.workload = c.workload;
            rc.ticks = c.stats.ticks;
            rc.events = c.stats.events;
            rc.wallMs = c.wallMs;
            for (const StatField &f : statFields())
                rc.counters[f.name] = f.get(c.stats);
            f.cells.push_back(std::move(rc));
        }
        out.figures.push_back(std::move(f));
    }
    return out;
}

std::size_t
compareResults(const ResultDoc &baseline, const ResultDoc &current,
               const CompareOptions &opt, std::ostream &os)
{
    std::size_t violations = 0;
    auto fail = [&](const std::string &msg) {
        violations++;
        os << "FAIL: " << msg << "\n";
    };
    static const char *const feedbackCounters[] = {
        "evictions_zero_hit", "evicted_page_hits"};

    for (const ResultFigure &bf : baseline.figures) {
        const ResultFigure *cf = current.find(bf.name);
        if (!cf) {
            fail(bf.name + ": figure missing from current results");
            continue;
        }
        if (bf.scale != cf->scale) {
            fail(bf.name + ": scale changed (baseline " +
                 std::to_string(bf.scale) + ", current " +
                 std::to_string(cf->scale) +
                 "); ticks are not comparable — re-record the "
                 "baseline");
            continue;
        }

        std::size_t figure_drift = 0;
        for (const ResultCell &bc : bf.cells) {
            const ResultCell *cc = cf->find(bc.app, bc.config);
            if (!cc) {
                fail(bf.name + "/" + bc.app + "/" + bc.config +
                     ": cell missing from current results");
                continue;
            }
            if (bc.ticks != cc->ticks) {
                fail(bf.name + "/" + bc.app + "/" + bc.config +
                     ": ticks drifted (baseline " +
                     std::to_string(bc.ticks) + ", current " +
                     std::to_string(cc->ticks) + ")");
                figure_drift++;
            }
            if (bc.events != cc->events) {
                fail(bf.name + "/" + bc.app + "/" + bc.config +
                     ": events drifted (baseline " +
                     std::to_string(bc.events) + ", current " +
                     std::to_string(cc->events) + ")");
                figure_drift++;
            }
            if (!bc.protocol.empty() && !cc->protocol.empty() &&
                bc.protocol != cc->protocol) {
                fail(bf.name + "/" + bc.app + "/" + bc.config +
                     ": protocol changed (baseline '" + bc.protocol +
                     "', current '" + cc->protocol + "')");
                figure_drift++;
            }
            if (bc.network != cc->network ||
                bc.directory != cc->directory) {
                fail(bf.name + "/" + bc.app + "/" + bc.config +
                     ": network/directory changed (baseline '" +
                     bc.network + "'/'" + bc.directory +
                     "', current '" + cc->network + "'/'" +
                     cc->directory + "')");
                figure_drift++;
            }
            if (!bc.workload.empty() && !cc->workload.empty() &&
                bc.workload != cc->workload) {
                fail(bf.name + "/" + bc.app + "/" + bc.config +
                     ": workload changed (baseline '" + bc.workload +
                     "', current '" + cc->workload + "')");
                figure_drift++;
            }
            // v7 documents carry no feedback counters; a counter
            // absent on either side is not compared.
            for (const char *name : feedbackCounters) {
                auto bit = bc.counters.find(name);
                auto cit = cc->counters.find(name);
                if (bit == bc.counters.end() ||
                    cit == cc->counters.end() ||
                    bit->second == cit->second)
                    continue;
                fail(bf.name + "/" + bc.app + "/" + bc.config + ": " +
                     name + " drifted (baseline " +
                     std::to_string(bit->second) + ", current " +
                     std::to_string(cit->second) + ")");
                figure_drift++;
            }
        }
        for (const ResultCell &cc : cf->cells) {
            if (!bf.find(cc.app, cc.config))
                os << "note: " << bf.name << "/" << cc.app << "/"
                   << cc.config << " is new (not in baseline)\n";
        }

        if (opt.wallTolerancePct < 0) {
            // determinism-only mode
        } else if (bf.jobs != cf->jobs) {
            os << "note: " << bf.name
               << ": wall-time check skipped (baseline ran with "
               << bf.jobs << " jobs, current with " << cf->jobs
               << ")\n";
        } else if (bf.wallMs > 0) {
            double limit =
                bf.wallMs * (1.0 + opt.wallTolerancePct / 100.0);
            double delta_pct =
                (cf->wallMs / bf.wallMs - 1.0) * 100.0;
            if (cf->wallMs > limit) {
                fail(bf.name + ": wall time regressed " +
                     std::to_string(delta_pct) + "% (baseline " +
                     std::to_string(bf.wallMs) + " ms, current " +
                     std::to_string(cf->wallMs) +
                     " ms, tolerance " +
                     std::to_string(opt.wallTolerancePct) + "%)");
            } else {
                os << "ok:   " << bf.name << ": wall "
                   << cf->wallMs << " ms vs baseline " << bf.wallMs
                   << " ms (" << (delta_pct >= 0 ? "+" : "")
                   << delta_pct << "%)"
                   << (figure_drift == 0 ? ", ticks identical"
                                         : "")
                   << "\n";
            }
        }
    }
    for (const ResultFigure &cf : current.figures) {
        if (!baseline.find(cf.name))
            os << "note: figure " << cf.name
               << " is new (not in baseline)\n";
    }

    os << (violations == 0 ? "compare: PASS"
                           : "compare: FAIL (" +
                                 std::to_string(violations) +
                                 " violation(s))")
       << "\n";
    return violations;
}

//--------------------------------------------------------------------------
// Measured-performance (bench) artifacts
//--------------------------------------------------------------------------

const BenchCell *
BenchFigure::find(const std::string &app,
                  const std::string &config) const
{
    for (const BenchCell &c : cells)
        if (c.app == app && c.config == config)
            return &c;
    return nullptr;
}

const BenchFigure *
BenchDoc::find(const std::string &name) const
{
    for (const BenchFigure &f : figures)
        if (f.name == name)
            return &f;
    return nullptr;
}

BenchDoc
loadBench(const std::string &json_text)
{
    JsonValue doc = parseJson(json_text);
    BenchDoc out;
    out.schema = stringOr(doc.get("schema"), "");
    if (out.schema != "rnuma-bench/v1")
        throw std::runtime_error(
            "unsupported bench schema '" + out.schema +
            "' (expected rnuma-bench/v1)");
    out.runs =
        static_cast<std::size_t>(numberOr(doc.get("runs"), 0));
    out.scale = numberOr(doc.get("scale"), 1.0);
    out.jobs =
        static_cast<std::size_t>(numberOr(doc.get("jobs"), 1));
    refuseIntraJobs(doc.get("intra_jobs"), "bench document");
    const JsonValue *figures = doc.get("figures");
    if (!figures || !figures->isArray())
        throw std::runtime_error("missing 'figures' array");
    for (const JsonValue &jf : figures->array) {
        BenchFigure f;
        f.name = stringOr(jf.get("name"), "?");
        f.scale = numberOr(jf.get("scale"), out.scale);
        const JsonValue *cells = jf.get("cells");
        if (cells && cells->isArray()) {
            for (const JsonValue &jc : cells->array) {
                BenchCell c;
                c.app = stringOr(jc.get("app"), "?");
                c.config = stringOr(jc.get("config"), "?");
                c.protocol = stringOr(jc.get("protocol"), "");
                c.events = static_cast<std::uint64_t>(
                    numberOr(jc.get("events"), 0));
                c.ticks = static_cast<std::uint64_t>(
                    numberOr(jc.get("ticks"), 0));
                c.refs = static_cast<std::uint64_t>(
                    numberOr(jc.get("refs"), 0));
                c.eventsPerInstruction = numberOr(
                    jc.get("events_per_instruction"), 0);
                c.medianEventsPerSec = numberOr(
                    jc.get("median_events_per_sec"), 0);
                f.cells.push_back(std::move(c));
            }
        }
        out.figures.push_back(std::move(f));
    }
    return out;
}

void
writeBench(std::ostream &os, const BenchDoc &doc)
{
    JsonWriter w(os);
    w.beginObject();
    w.key("schema");
    w.value(doc.schema.empty() ? std::string("rnuma-bench/v1")
                               : doc.schema);
    w.key("runs");
    w.value(static_cast<std::uint64_t>(doc.runs));
    w.key("scale");
    w.value(doc.scale);
    w.key("jobs");
    w.value(static_cast<std::uint64_t>(doc.jobs));
    w.key("figures");
    w.beginArray();
    for (const BenchFigure &f : doc.figures) {
        w.beginObject();
        w.key("name");
        w.value(f.name);
        w.key("scale");
        w.value(f.scale);
        w.key("cells");
        w.beginArray();
        for (const BenchCell &c : f.cells) {
            w.beginObject();
            w.key("app");
            w.value(c.app);
            w.key("config");
            w.value(c.config);
            if (!c.protocol.empty()) {
                w.key("protocol");
                w.value(c.protocol);
            }
            w.key("events");
            w.value(c.events);
            w.key("ticks");
            w.value(c.ticks);
            w.key("refs");
            w.value(c.refs);
            w.key("events_per_instruction");
            w.value(c.eventsPerInstruction);
            w.key("median_events_per_sec");
            w.value(c.medianEventsPerSec);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << "\n";
}

std::size_t
compareBench(const BenchDoc &baseline, const BenchDoc &current,
             const BenchCompareOptions &opt, std::ostream &os)
{
    std::size_t violations = 0;
    auto fail = [&](const std::string &msg) {
        violations++;
        os << "FAIL: " << msg << "\n";
    };
    if (baseline.runs != current.runs)
        os << "note: baseline medians are of " << baseline.runs
           << " runs, current of " << current.runs << "\n";
    // Host throughput does not compare across differing sweep
    // concurrency; counters still must match.
    bool rateComparable = baseline.jobs == current.jobs;
    if (!rateComparable && opt.ratePct >= 0)
        os << "note: events/sec check skipped (baseline ran with "
           << baseline.jobs << " jobs, current with " << current.jobs
           << ")\n";

    for (const BenchFigure &bf : baseline.figures) {
        const BenchFigure *cf = current.find(bf.name);
        if (!cf) {
            fail(bf.name + ": figure missing from current bench");
            continue;
        }
        if (bf.scale != cf->scale) {
            fail(bf.name + ": scale changed (baseline " +
                 std::to_string(bf.scale) + ", current " +
                 std::to_string(cf->scale) +
                 "); counters are not comparable — re-record the "
                 "baseline");
            continue;
        }
        std::size_t figure_drift = 0;
        double worst_drop = 0;
        for (const BenchCell &bc : bf.cells) {
            const BenchCell *cc = cf->find(bc.app, bc.config);
            if (!cc) {
                fail(bf.name + "/" + bc.app + "/" + bc.config +
                     ": cell missing from current bench");
                continue;
            }
            const char *counter = nullptr;
            std::uint64_t bv = 0, cv = 0;
            if (bc.events != cc->events) {
                counter = "events";
                bv = bc.events;
                cv = cc->events;
            } else if (bc.ticks != cc->ticks) {
                counter = "ticks";
                bv = bc.ticks;
                cv = cc->ticks;
            } else if (bc.refs != cc->refs) {
                counter = "refs";
                bv = bc.refs;
                cv = cc->refs;
            }
            if (counter) {
                fail(bf.name + "/" + bc.app + "/" + bc.config +
                     ": " + counter + " drifted (baseline " +
                     std::to_string(bv) + ", current " +
                     std::to_string(cv) + ")");
                figure_drift++;
            }
            if (rateComparable && opt.ratePct >= 0 &&
                bc.medianEventsPerSec > 0) {
                double drop_pct = (1.0 - cc->medianEventsPerSec /
                                             bc.medianEventsPerSec) *
                    100.0;
                if (drop_pct > worst_drop)
                    worst_drop = drop_pct;
                if (drop_pct > opt.ratePct) {
                    fail(bf.name + "/" + bc.app + "/" + bc.config +
                         ": median events/sec regressed " +
                         std::to_string(drop_pct) +
                         "% (baseline " +
                         std::to_string(bc.medianEventsPerSec) +
                         ", current " +
                         std::to_string(cc->medianEventsPerSec) +
                         ", tolerance " +
                         std::to_string(opt.ratePct) + "%)");
                }
            }
        }
        for (const BenchCell &cc : cf->cells) {
            if (!bf.find(cc.app, cc.config))
                os << "note: " << bf.name << "/" << cc.app << "/"
                   << cc.config << " is new (not in baseline)\n";
        }
        if (figure_drift == 0)
            os << "ok:   " << bf.name << ": counters identical"
               << (rateComparable && opt.ratePct >= 0
                       ? ", worst events/sec drop " +
                             std::to_string(worst_drop) + "%"
                       : "")
               << "\n";
    }
    for (const BenchFigure &cf : current.figures) {
        if (!baseline.find(cf.name))
            os << "note: figure " << cf.name
               << " is new (not in baseline)\n";
    }

    os << (violations == 0 ? "bench-compare: PASS"
                           : "bench-compare: FAIL (" +
                                 std::to_string(violations) +
                                 " violation(s))")
       << "\n";
    return violations;
}

} // namespace rnuma::driver
