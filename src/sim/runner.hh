/**
 * @file
 * Convenience harness: run one workload under each protocol (plus the
 * infinite-block-cache CC-NUMA baseline all figures normalize to) and
 * report normalized execution times, as in Figures 6-9.
 *
 * The comparison currency is registry-driven: ComparisonMatrix holds
 * the baseline plus one entry per ProtocolSpec it ran (by default
 * every registered protocol), so a newly registered policy protocol
 * shows up in quickstart, the smoke suite, and every example with no
 * further wiring.
 */

#ifndef RNUMA_SIM_RUNNER_HH
#define RNUMA_SIM_RUNNER_HH

#include <functional>
#include <memory>
#include <vector>

#include "common/params.hh"
#include "common/stats.hh"
#include "proto/registry.hh"
#include "workload/workload.hh"

namespace rnuma
{

/** Run one system over a workload (resets the workload first). */
RunStats runProtocol(const Params &params, const ProtocolSpec &spec,
                     Workload &wl);

/** Run a registered protocol by name (fatal when unknown). */
RunStats runProtocol(const Params &params, const std::string &name,
                     Workload &wl);

/** Run the Figure 6 baseline: CC-NUMA with an infinite block cache. */
RunStats runInfiniteBaseline(const Params &params, Workload &wl);

/**
 * num/den as a normalized execution time. NaN when @p den is zero —
 * a degenerate (e.g. one-reference) workload reports a flagged
 * value the table/JSON sinks render as "nan"/null instead of
 * panicking mid-figure. The single normalization rule shared by
 * the comparison harness and the figure renderers.
 */
double normalizedTime(Tick num, Tick den);

/** One system's result inside a ComparisonMatrix. */
struct ComparisonEntry
{
    std::string id;   ///< stable spec id ("ccnuma", "rnuma-t16", ...)
    std::string name; ///< display name ("CC-NUMA")
    RunStats stats;
};

/**
 * An N-way comparison for one workload and parameter set: the
 * infinite-block-cache baseline plus one entry per spec, in the
 * order the specs were given (registration order for the default
 * all-registered selection). All normalized times are relative to
 * the baseline, as in Figure 6.
 */
struct ComparisonMatrix
{
    RunStats baseline; ///< CC-NUMA, infinite block cache
    std::vector<ComparisonEntry> entries;

    /** Entry by spec id; nullptr when the id did not run. */
    const ComparisonEntry *find(const std::string &id) const;

    /** Entry by spec id; fatal (throws under tests) when absent. */
    const ComparisonEntry &at(const std::string &id) const;

    /**
     * Execution time of @p id normalized to the baseline. NaN when
     * the baseline simulated zero ticks (degenerate workloads at
     * tiny scales report a flagged cell instead of panicking).
     */
    double norm(const std::string &id) const;

    /** min over @p ids of norm(id); fatal on an unknown id. */
    double bestOf(const std::vector<std::string> &ids) const;

    /**
     * The paper's yardstick: min(norm("ccnuma"), norm("scoma")) —
     * "the best of the two base protocols". Fatal when the matrix
     * did not run both.
     */
    double bestOfBase() const;

    /**
     * The entry with the lowest simulated time (ties resolve to the
     * earliest entry, so the result is deterministic). Fatal on an
     * empty matrix.
     */
    const ComparisonEntry &winner() const;

    /**
     * Relative loss of @p id vs the winner:
     * ticks(id)/ticks(winner) - 1. Zero for the winner itself;
     * baseline-independent, so it stays defined on degenerate
     * workloads.
     */
    double regret(const std::string &id) const;
};

/**
 * Run the baseline plus @p specs back to back on @p wl, serially.
 * An empty @p specs list means every registered protocol, in
 * registration order.
 */
ComparisonMatrix
compareAll(const Params &params, Workload &wl,
           const std::vector<ProtocolSpec> &specs = {});

/**
 * Run the baseline plus @p specs concurrently on up to @p jobs
 * threads (0 means hardware concurrency, as everywhere in this
 * codebase). Each run gets its own workload from @p make, so the
 * runs share no state; because the simulator is deterministic, the
 * result is bit-identical to the serial overload at any job count.
 * An empty @p specs list means every registered protocol.
 */
ComparisonMatrix
compareAll(const Params &params,
           const std::function<std::unique_ptr<Workload>()> &make,
           const std::vector<ProtocolSpec> &specs, std::size_t jobs);

/**
 * Resolve registry ids (any case) into specs for compareAll; fatal
 * (throws under tests) on an unknown id.
 */
std::vector<ProtocolSpec>
protocolSpecs(const std::vector<std::string> &names);

} // namespace rnuma

#endif // RNUMA_SIM_RUNNER_HH
