#include "driver/compare.hh"

#include <cmath>
#include <stdexcept>

#include "driver/json.hh"

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
 * v8 documents may carry "intra_jobs", the partition count of the
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

/** A figure's required numeric field @p key. */
double
figureNumber(const JsonValue &figure, const char *key,
             const std::string &name)
{
    const JsonValue *v = figure.get(key);
    if (!v || v->kind != JsonValue::Kind::Number)
        throw std::runtime_error(name + ": " + key +
                                 " is missing or not a number");
    return v->number;
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
    if (out.schema != "rnuma-sweep-results/v8")
        throw std::runtime_error(
            "unsupported results schema '" + out.schema +
            "' (expected rnuma-sweep-results/v8)");
    const JsonValue *figures = doc.get("figures");
    if (!figures || !figures->isArray())
        throw std::runtime_error("missing 'figures' array");
    for (const JsonValue &jf : figures->array) {
        ResultFigure f;
        f.name = stringOr(jf.get("name"), "?");
        // scale names the inputs the counters came from and jobs
        // gates the wall-time check: a value the gate or the cast
        // would misread is refused, not defaulted.
        f.scale = figureNumber(jf, "scale", f.name);
        if (!std::isfinite(f.scale) || f.scale <= 0)
            throw std::runtime_error(f.name +
                                     ": scale is not finite and > 0");
        double jobs = figureNumber(jf, "jobs", f.name);
        if (!(jobs >= 1 && jobs < 0x1p64) || jobs != std::floor(jobs))
            throw std::runtime_error(f.name +
                                     ": jobs is not an integer >= 1");
        f.jobs = static_cast<std::size_t>(jobs);
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
                c.network = stringOr(jc.get("network"), c.network);
                c.directory =
                    stringOr(jc.get("directory"), c.directory);
                c.workload = stringOr(jc.get("workload"), c.workload);
                refuseIntraJobs(jc.get("intra_jobs"), where);
                c.wallMs = numberOr(jc.get("wall_ms"), 0);
                const JsonValue *stats = jc.get("stats");
                const JsonValue *ev = stats ? stats->get("events")
                                            : nullptr;
                if (!ev || ev->kind != JsonValue::Kind::Number)
                    throw std::runtime_error(
                        where + ": cell has no stats.events");
                // The whole numeric stats object; names follow
                // statFields(). A counter that is not a
                // non-negative integer would be truncated by the
                // cast, so refuse it instead of comparing it.
                for (const auto &kv : stats->object) {
                    if (kv.second.kind != JsonValue::Kind::Number)
                        continue;
                    double v = kv.second.number;
                    if (!(v >= 0 && v < 0x1p64) || v != std::floor(v))
                        throw std::runtime_error(
                            where + ": stats." + kv.first +
                            " is not a non-negative integer");
                    c.counters[kv.first] =
                        static_cast<std::uint64_t>(v);
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
    if (!std::isfinite(opt.wallTolerancePct))
        throw std::invalid_argument(
            "wall-time tolerance must be a finite number of percent "
            "(negative = counters only)");
    std::size_t violations = 0;
    auto fail = [&](const std::string &msg) {
        violations++;
        os << "FAIL: " << msg << "\n";
    };

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
            const std::string where =
                bf.name + "/" + bc.app + "/" + bc.config + ": ";
            const ResultCell *cc = cf->find(bc.app, bc.config);
            if (!cc) {
                fail(where + "cell missing from current results");
                continue;
            }
            auto drift = [&](const std::string &msg) {
                fail(where + msg);
                figure_drift++;
            };
            for (const auto &[name, bv] : bc.counters) {
                auto it = cc->counters.find(name);
                if (it == cc->counters.end())
                    drift(name + " missing from current stats");
                else if (it->second != bv)
                    drift(name + " drifted (baseline " +
                          std::to_string(bv) + ", current " +
                          std::to_string(it->second) + ")");
            }
            for (const auto &kv : cc->counters) {
                if (!bc.counters.count(kv.first))
                    drift(kv.first + " missing from baseline stats");
            }
            if (!bc.protocol.empty() && !cc->protocol.empty() &&
                bc.protocol != cc->protocol)
                drift("protocol changed (baseline '" + bc.protocol +
                      "', current '" + cc->protocol + "')");
            if (bc.network != cc->network ||
                bc.directory != cc->directory)
                drift("network/directory changed (baseline '" +
                      bc.network + "'/'" + bc.directory +
                      "', current '" + cc->network + "'/'" +
                      cc->directory + "')");
            if (!bc.workload.empty() && !cc->workload.empty() &&
                bc.workload != cc->workload)
                drift("workload changed (baseline '" + bc.workload +
                      "', current '" + cc->workload + "')");
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
                   << (figure_drift == 0 ? ", counters identical"
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

} // namespace rnuma::driver
