#include "sim/runner.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "sim/machine.hh"

namespace rnuma
{

RunStats
runProtocol(const Params &params, const ProtocolSpec &spec,
            Workload &wl)
{
    wl.reset();
    Machine m(params, spec, wl);
    return m.run();
}

RunStats
runProtocol(const Params &params, const std::string &name,
            Workload &wl)
{
    return runProtocol(params, protocolSpec(name), wl);
}

RunStats
runInfiniteBaseline(const Params &params, Workload &wl)
{
    Params base = params;
    base.infiniteBlockCache = true;
    return runProtocol(base, "ccnuma", wl);
}

double
normalizedTime(Tick num, Tick den)
{
    if (den == 0)
        return std::numeric_limits<double>::quiet_NaN();
    return static_cast<double>(num) / static_cast<double>(den);
}

namespace
{

/** Every registered spec, by value, in registration order. */
std::vector<ProtocolSpec>
allRegisteredSpecs()
{
    std::vector<ProtocolSpec> specs;
    for (const ProtocolSpec *s : ProtocolRegistry::global().all())
        specs.push_back(*s);
    return specs;
}

} // namespace

std::vector<ProtocolSpec>
protocolSpecs(const std::vector<std::string> &names)
{
    std::vector<ProtocolSpec> specs;
    specs.reserve(names.size());
    for (const std::string &name : names)
        specs.push_back(protocolSpec(name));
    return specs;
}

const ComparisonEntry *
ComparisonMatrix::find(const std::string &id) const
{
    for (const ComparisonEntry &e : entries)
        if (e.id == id)
            return &e;
    return nullptr;
}

const ComparisonEntry &
ComparisonMatrix::at(const std::string &id) const
{
    const ComparisonEntry *e = find(id);
    if (!e) {
        RNUMA_FATAL("protocol '", id,
                    "' did not run in this comparison");
    }
    return *e;
}

double
ComparisonMatrix::norm(const std::string &id) const
{
    return normalizedTime(at(id).stats.ticks, baseline.ticks);
}

double
ComparisonMatrix::bestOf(const std::vector<std::string> &ids) const
{
    RNUMA_ASSERT(!ids.empty(), "bestOf needs at least one id");
    double best = std::numeric_limits<double>::infinity();
    for (const std::string &id : ids) {
        double n = norm(id);
        if (std::isnan(n))
            return n;
        best = std::min(best, n);
    }
    return best;
}

double
ComparisonMatrix::bestOfBase() const
{
    return bestOf({"ccnuma", "scoma"});
}

const ComparisonEntry &
ComparisonMatrix::winner() const
{
    RNUMA_ASSERT(!entries.empty(), "winner() on an empty comparison");
    const ComparisonEntry *best = &entries.front();
    for (const ComparisonEntry &e : entries)
        if (e.stats.ticks < best->stats.ticks)
            best = &e;
    return *best;
}

double
ComparisonMatrix::regret(const std::string &id) const
{
    return normalizedTime(at(id).stats.ticks, winner().stats.ticks) - 1.0;
}

ComparisonMatrix
compareAll(const Params &params, Workload &wl,
           const std::vector<ProtocolSpec> &specs)
{
    const std::vector<ProtocolSpec> &run =
        specs.empty() ? allRegisteredSpecs() : specs;
    ComparisonMatrix m;
    m.baseline = runInfiniteBaseline(params, wl);
    for (const ProtocolSpec &spec : run) {
        ComparisonEntry e;
        e.id = spec.id;
        e.name = spec.displayName;
        e.stats = runProtocol(params, spec, wl);
        m.entries.push_back(std::move(e));
    }
    return m;
}

ComparisonMatrix
compareAll(const Params &params,
           const std::function<std::unique_ptr<Workload>()> &make,
           const std::vector<ProtocolSpec> &specs, std::size_t jobs)
{
    RNUMA_ASSERT(make, "compareAll needs a workload factory");
    const std::vector<ProtocolSpec> run =
        specs.empty() ? allRegisteredSpecs() : specs;
    ComparisonMatrix m;
    m.entries.resize(run.size());
    for (std::size_t i = 0; i < run.size(); ++i) {
        m.entries[i].id = run[i].id;
        m.entries[i].name = run[i].displayName;
    }
    // Task 0 is the baseline; task i+1 runs spec i. Each task builds
    // its own workload and writes its own slot, so the pool shares
    // no mutable state.
    parallelFor(run.size() + 1, jobs, [&](std::size_t i) {
        std::unique_ptr<Workload> wl = make();
        if (i == 0) {
            m.baseline = runInfiniteBaseline(params, *wl);
        } else {
            m.entries[i - 1].stats =
                runProtocol(params, run[i - 1], *wl);
        }
    });
    return m;
}

} // namespace rnuma
