/**
 * @file
 * The results regression gate: diff two rnuma-sweep-results documents
 * (a baseline vs the current run). Every simulated per-cell counter
 * is deterministic, so any drift is a hard failure; host wall time is
 * noisy, so it fails only beyond a percentage tolerance. Consumed by
 * `rnuma_sweep --compare` and the CI figure pipeline, which diffs the
 * PR against its base revision (workflow: .github/workflows/ci.yml;
 * workflow docs: docs/PERFORMANCE.md).
 */

#ifndef RNUMA_DRIVER_COMPARE_HH
#define RNUMA_DRIVER_COMPARE_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "driver/result_sink.hh"

namespace rnuma::driver
{

/** The comparable slice of one serialized cell. */
struct ResultCell
{
    std::string app;
    std::string config;
    /** Protocol spec id ("ccnuma"); empty when the cell has none. */
    std::string protocol;
    /** Network-model spec id ("mesh-2d"), read verbatim. */
    std::string network = "constant";
    /** Directory-format id. */
    std::string directory = "full-map";
    /**
     * Workload-registry id of the cell's generator, read verbatim
     * ("barnes", "zipf-serve", ...); "" for an ad-hoc factory, which
     * the gate does not compare.
     */
    std::string workload;
    double wallMs = 0;
    /**
     * Every numeric field of the cell's serialized "stats" object
     * ("ticks", "events", "refs", ...), by field name.
     */
    std::map<std::string, std::uint64_t> counters;
};

/** The comparable slice of one serialized figure. */
struct ResultFigure
{
    std::string name;
    double scale = 1.0;
    std::size_t jobs = 1;
    double wallMs = 0;
    std::vector<ResultCell> cells;

    const ResultCell *find(const std::string &app,
                           const std::string &config) const;
};

/** A parsed results document. */
struct ResultDoc
{
    std::string schema;
    std::vector<ResultFigure> figures;

    const ResultFigure *find(const std::string &name) const;
};

/**
 * Extract the comparable slice from a parsed rnuma-sweep-results/v8
 * document. Throws std::runtime_error on any other schema (the
 * message names it), on a cell without stats.events, on a stats
 * counter that is not a non-negative integer, and on a cell whose
 * "intra_jobs" is present and not 1: it ran under the removed
 * parallel intra-cell engine, whose ticks were never comparable to
 * serial runs.
 */
ResultDoc loadResults(const std::string &json_text);

/** Build the comparable slice directly from executed figures. */
ResultDoc resultsOf(const std::vector<FigureRun> &runs);

/** Tuning for compareResults. */
struct CompareOptions
{
    /**
     * Allowed per-figure wall-time growth, in percent (e.g. 25 means
     * "fail when >1.25x the baseline"). Negative disables the
     * wall-time check entirely (determinism checks always run).
     * Must be finite: compareResults throws std::invalid_argument on
     * NaN or infinity, which would otherwise pass every regression.
     */
    double wallTolerancePct = 25.0;
};

/**
 * Diff @p current against @p baseline, writing a per-figure report
 * to @p os. Returns the number of violations:
 *
 * - a figure or cell present in the baseline but missing now
 *   (coverage loss);
 * - any per-cell stats counter drifting — exact comparison over every
 *   counter, any difference fails (the simulator is deterministic, so
 *   drift means behavior changed without the baseline being
 *   re-recorded);
 * - a stats counter present in only one of the two cells;
 * - a cell's protocol, network, directory or workload id changing;
 * - per-figure wall time above baseline by more than the tolerance.
 *
 * Figures whose scale differs from the baseline's are a violation
 * (the comparison would be meaningless). Cells/figures only in
 * @p current are reported as new, not counted. Wall-time checks are
 * skipped (with a note) when the job counts differ, since sweep wall
 * time scales with concurrency.
 */
std::size_t compareResults(const ResultDoc &baseline,
                           const ResultDoc &current,
                           const CompareOptions &opt,
                           std::ostream &os);

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_COMPARE_HH
