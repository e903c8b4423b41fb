/**
 * @file
 * Machine-readable emitters for executed sweeps. A FigureRun pairs a
 * figure's identity with its SweepResult; writeJson and writeCsv
 * serialize lists of them. The JSON schema
 * ("rnuma-sweep-results/v8", documented in docs/PERFORMANCE.md) is
 * the artifact the CI figure pipeline and the compare gate consume,
 * so changes to it must bump the schema string (result_sink.cc keeps
 * the version history).
 */

#ifndef RNUMA_DRIVER_RESULT_SINK_HH
#define RNUMA_DRIVER_RESULT_SINK_HH

#include <ostream>
#include <string>
#include <vector>

#include "driver/sweep_runner.hh"

namespace rnuma::driver
{

/** One executed figure: identity plus per-cell results. */
struct FigureRun
{
    std::string name;     ///< CLI name, e.g. "fig6"
    std::string title;
    std::string paperRef;
    double scale = 1.0;   ///< workload scale the sweep ran at
    std::size_t jobs = 1; ///< concurrency it ran with
    double wallMs = 0;    ///< wall-clock for the whole sweep
    int status = 0;       ///< render/verification exit status
    SweepResult result;
};

/** The per-cell counters serialized by the sinks, in order. */
struct StatField
{
    const char *name;
    std::uint64_t (*get)(const RunStats &);
};
const std::vector<StatField> &statFields();

/**
 * The distinct protocol ids a sweep's cells ran, in first-appearance
 * order — the figure-level "protocols" array of the v4 schema.
 */
std::vector<std::string> protocolsOf(const SweepResult &result);

/** Write @p runs as one "rnuma-sweep-results/v8" JSON document. */
void writeJson(std::ostream &os, const std::vector<FigureRun> &runs);

/** Write @p runs as flat CSV: one row per cell, figures concatenated. */
void writeCsv(std::ostream &os, const std::vector<FigureRun> &runs);

} // namespace rnuma::driver

#endif // RNUMA_DRIVER_RESULT_SINK_HH
