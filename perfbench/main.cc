/**
 * @file
 * The repo benchmark: runs one named workload through the simulator's
 * public APIs, checks every cell's output, and prints each metric by
 * name and unit. Workloads, metrics and the layer map are documented
 * in perfbench/README.md; perfbench/run.py builds and runs this.
 *
 *   rnuma_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                   [--scratch DIR] [--tiny]
 *
 * --trace 0 measures the end-to-end metrics on untraced serial sweeps;
 * --trace 1 adds a decorator-traced run (trace.hh) and reports the
 * per-layer metrics instead. The last stdout line is the JSON result.
 */

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "driver/sweep.hh"
#include "driver/sweep_runner.hh"
#include "sim/machine.hh"
#include "trace.hh"
#include "workload/registry.hh"
#include "workload/trace_stream.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace
{

using namespace rnuma;
using namespace rnuma::driver;
using perfbench::Layer;
using perfbench::numLayers;

//--------------------------------------------------------------------------
// Workloads. Cells are defined from registry ids only, so editing a
// figure builder cannot change the benchmark.
//--------------------------------------------------------------------------

/** One generated input and the machine it runs on. */
struct Row
{
    std::string label;     ///< row label ("barnes", "shift-p3", ...)
    std::string generator; ///< workload registry id
    std::string options;   ///< generator options
    Params params;         ///< generation and run geometry
};

struct WorkloadDef
{
    std::vector<Row> rows;
    /** Protocols run on every row besides the Figure 6 baseline. */
    std::vector<std::string> protocols;
    double scale = 1.0;
    /** Cells replay an RNUMAST1 trace recorded during setup. */
    bool replayTrace = false;
};

/** The paper's 8x4 machine scaled to a 64-node sparse-directory mesh. */
Params
mesh64()
{
    Params p = Params::base();
    p.numNodes = 64;
    p.networkModel = "mesh-2d";
    p.dirFormat = SharerFormat::LimitedPointer;
    p.dirPointers = 4;
    return p;
}

WorkloadDef
defineWorkload(const std::string &name, bool tiny)
{
    WorkloadDef d;
    if (name == "paper-apps") {
        for (const WorkloadSpec *s : WorkloadRegistry::global().all())
            if (s->category == "app")
                d.rows.push_back({s->id, s->id, "", Params::base()});
        d.protocols = {"ccnuma", "scoma", "rnuma"};
        d.scale = tiny ? 0.01 : 0.12;
    } else if (name == "reloc-churn") {
        // sweeps=96 is the feedback figure's pin: residencies long
        // enough for capacity refetches to cross every threshold.
        // The generator's size does not depend on the scale. One phase
        // step keeps each cell short enough to repeat many times.
        d.rows.push_back({"shift-p3", "phase-shift",
                          tiny ? "phases=3,sweeps=2" : "phases=3,sweeps=96",
                          Params::base()});
        d.protocols = {"ccnuma", "scoma", "rnuma", "rnuma-hysteresis",
                       "rnuma-online-model"};
    } else if (name == "serve-mesh64-trace") {
        d.rows.push_back({"zipf-0.95-m64", "zipf-serve",
                          "theta=0.95,write=0.3", mesh64()});
        d.protocols = {"ccnuma", "scoma", "rnuma"};
        d.scale = tiny ? 0.02 : 0.1;
        d.replayTrace = true;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return d;
}

/** One row's generated input. */
struct Input
{
    std::string key; ///< WorkloadCache content address
    std::shared_ptr<const VectorWorkload> snapshot;
    std::string tracePath; ///< empty unless the workload replays
    std::uintmax_t traceBytes = 0;
};

struct SetupTimes
{
    double genS = 0;
    double recordS = 0;
};

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<Input>
generateInputs(const WorkloadDef &d, std::uint64_t seed,
               const std::string &scratch, SetupTimes &t)
{
    std::vector<Input> out;
    for (const Row &row : d.rows) {
        Input in;
        auto t0 = Clock::now();
        std::unique_ptr<Workload> wl = makeWorkload(
            row.generator, row.params, d.scale, seed, row.options);
        auto *vec = dynamic_cast<VectorWorkload *>(wl.get());
        if (!vec)
            throw std::runtime_error(row.generator +
                                     " is not an in-memory workload");
        wl.release();
        std::shared_ptr<VectorWorkload> owned(vec);
        t.genS += secondsSince(t0);
        // Timed even when empty, so the figure is always a measurement.
        auto t1 = Clock::now();
        if (d.replayTrace) {
            in.tracePath = scratch + "/" + row.label + "-" +
                           std::to_string(::getpid()) + ".rnst";
            recordStreamTrace(*owned, in.tracePath);
            in.traceBytes = std::filesystem::file_size(in.tracePath);
        }
        t.recordS += secondsSince(t1);
        in.key = workloadCacheKey(row.generator + "/" + row.options,
                                  row.params, d.scale, seed);
        in.snapshot = std::move(owned);
        out.push_back(std::move(in));
    }
    return out;
}

/** Cells per row: the baseline plus every protocol. */
std::size_t
cellsPerRow(const WorkloadDef &d)
{
    return d.protocols.size() + 1;
}

/**
 * The workload's sweep. Replaying cells open the recorded trace; the
 * rest are keyed to the snapshots pre-loaded into the shared cache.
 */
Sweep
buildSweep(const std::string &name, const WorkloadDef &d,
           const std::vector<Input> &inputs, std::uint64_t seed,
           bool replay)
{
    Sweep s(name);
    for (std::size_t i = 0; i < d.rows.size(); ++i) {
        const Row &row = d.rows[i];
        WorkloadFactory make;
        std::string key;
        if (replay) {
            std::string path = inputs[i].tracePath;
            make = [path] {
                return std::unique_ptr<Workload>(
                    std::make_unique<StreamTraceWorkload>(path));
            };
        } else {
            double scale = d.scale;
            make = [row, scale, seed] {
                return makeWorkload(row.generator, row.params, scale,
                                    seed, row.options);
            };
            key = inputs[i].key;
        }
        Params inf = row.params;
        inf.infiniteBlockCache = true;
        s.add({row.label, "baseline", protocolSpec("ccnuma"), inf, make,
               key, row.generator});
        for (const std::string &id : d.protocols)
            s.add({row.label, id, protocolSpec(id), row.params, make,
                   key, row.generator});
    }
    return s;
}

//--------------------------------------------------------------------------
// Correctness: per-cell checks against the first untraced round.
//--------------------------------------------------------------------------

struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ULL;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
};

/** A digest of every RunStats field, stable across builds. */
std::uint64_t
statsDigest(const RunStats &s)
{
    Fnv f;
    for (std::uint64_t v :
         {std::uint64_t(s.ticks), s.events, s.refs, s.l1Hits, s.l1Misses,
          s.upgrades, s.barriers, s.localFills, s.nodeTransfers,
          s.blockCacheHits, s.pageCacheHits, s.remoteFetches,
          s.refetches, s.coherenceMisses, s.coldMisses,
          s.invalidationsSent, s.forwards, s.writebacks,
          s.flushedBlocks, s.pageFaults, s.scomaAllocations,
          s.scomaReplacements, s.relocations, s.evictionsZeroHit,
          s.evictedPageHits, std::uint64_t(s.busWait),
          std::uint64_t(s.niWait), std::uint64_t(s.osCycles),
          std::uint64_t(s.stallCycles), s.dirEntries, s.dirBits})
        f.add(v);
    for (std::uint64_t m : s.net.messages)
        f.add(m);
    std::map<Addr, PageStats> pages(s.pages.begin(), s.pages.end());
    for (const auto &[page, ps] : pages) {
        f.add(page);
        f.add(ps.refetches);
        f.add(ps.remoteFetches);
        f.add((ps.remoteRead ? 1 : 0) | (ps.remoteWrite ? 2 : 0));
    }
    return f.h;
}

class Checker
{
  public:
    Checker(const Sweep &sweep, const WorkloadDef &d,
            const std::vector<Input> &inputs)
        : failed_(sweep.size(), false)
    {
        for (std::size_t i = 0; i < sweep.size(); ++i)
            expectedRefs_.push_back(
                inputs[i / cellsPerRow(d)].snapshot->memRefCount());
    }

    /** Check one cell's stats; the first call per cell sets the
     * reference every later run must repeat exactly. */
    void
    check(std::size_t i, const RunStats &s, const char *what)
    {
        if (s.refs != expectedRefs_[i])
            fail(i, what, "refs differ from the generated memory refs");
        if (reference_.size() <= i)
            reference_.resize(i + 1);
        if (!reference_[i])
            reference_[i] = std::make_unique<RunStats>(s);
        else if (!(*reference_[i] == s))
            fail(i, what, "RunStats differ from the first run");
    }

    void
    fail(std::size_t i, const char *what, const std::string &why)
    {
        if (!failed_[i])
            std::fprintf(stderr, "perfbench: cell %zu failed (%s): %s\n",
                         i, what, why.c_str());
        failed_[i] = true;
    }

    std::size_t
    failures() const
    {
        return std::size_t(
            std::count(failed_.begin(), failed_.end(), true));
    }

    const RunStats *
    reference(std::size_t i) const
    {
        return i < reference_.size() ? reference_[i].get() : nullptr;
    }

  private:
    std::vector<bool> failed_;
    std::vector<std::uint64_t> expectedRefs_;
    std::vector<std::unique_ptr<RunStats>> reference_;
};

//--------------------------------------------------------------------------
// Measurement.
//--------------------------------------------------------------------------

/** One timed pass over every cell, each run as its own sweep. */
struct Round
{
    std::vector<double> wallS;  ///< per cell: SweepRunner::run
    std::vector<double> cellsS; ///< per cell: the cell's own run time
    std::uint64_t refs = 0;
    std::size_t cacheHits = 0;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

template <typename F>
std::vector<double>
collect(const std::vector<Round> &rounds, F f)
{
    std::vector<double> v;
    for (const Round &r : rounds)
        v.push_back(f(r));
    return v;
}

double
sum(const std::vector<double> &v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return s;
}

/**
 * Sum over cells of each cell's fastest time across @p rounds. The
 * host is shared: other tenants only ever add time, and they do so in
 * stretches of seconds to minutes that can double a cell's time, so
 * the fastest of many short repeats is the steadiest estimate of the
 * program's own cost.
 */
double
sumOfFastest(const std::vector<Round> &rounds,
             std::vector<double> Round::*field)
{
    if (rounds.empty())
        return 0;
    double total = 0;
    for (std::size_t i = 0; i < (rounds[0].*field).size(); ++i) {
        double best = (rounds[0].*field)[i];
        for (const Round &r : rounds)
            best = std::min(best, (r.*field)[i]);
        total += best;
    }
    return total;
}

/** The sweep split into one single-cell sweep per cell. */
std::vector<Sweep>
splitCells(const Sweep &sweep)
{
    std::vector<Sweep> out;
    for (const Cell &c : sweep.cells()) {
        out.emplace_back(sweep.name());
        out.back().add(c);
    }
    return out;
}

/**
 * Moves the process over the CPUs it may use. On a shared host one
 * CPU can run at half speed for minutes while another tenant loads
 * the core under it, so a run that stays where the scheduler first put
 * it measures that tenant. Running cell i of round r on CPU (i + r)
 * mod n lets every cell's fastest repeat come from an unloaded CPU.
 * Without affinity support it does nothing.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof all_, &all_) != 0)
            return;
        for (int c = 0; c < CPU_SETSIZE; ++c)
            if (CPU_ISSET(c, &all_))
                cpus_.push_back(c);
    }

    ~CpuRotation() { restore(); }

    void
    pin(std::size_t k) const
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[k % cpus_.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

    void
    restore() const
    {
        if (cpus_.size() >= 2)
            sched_setaffinity(0, sizeof all_, &all_);
    }

  private:
    cpu_set_t all_;
    std::vector<int> cpus_;
};

/**
 * One untraced serial pass: every cell through its own
 * SweepRunner::run, so each is timed on its own, cell i on the
 * rotation's CPU i + @p round. A cell that throws is counted as failed
 * and the round is dropped.
 */
bool
runRound(const SweepRunner &runner, const std::vector<Sweep> &cells,
         Checker &check, const char *what, Round &out,
         const CpuRotation &cpus, std::size_t round)
{
    bool ok = true;
    for (std::size_t i = 0; i < cells.size(); ++i) {
        cpus.pin(i + round);
        try {
            auto t0 = Clock::now();
            SweepResult res = runner.run(cells[i]);
            out.wallS.push_back(secondsSince(t0));
            const CellResult &c = res.cells.at(0);
            out.cellsS.push_back(c.wallMs / 1000.0);
            out.refs += c.stats.refs;
            out.cacheHits += res.workloadCacheHits;
            check.check(i, c.stats, what);
        } catch (const std::exception &e) {
            check.fail(i, what, e.what());
            ok = false;
        }
    }
    return ok;
}

/**
 * Repeat @p round while another one of the last one's length still
 * fits in @p seconds (at least one), so a run ends near its budget.
 */
template <typename F>
void
repeatWithin(double seconds, F round)
{
    auto t0 = Clock::now();
    double last = 0;
    do {
        auto r0 = Clock::now();
        round();
        last = secondsSince(r0);
    } while (secondsSince(t0) + last <= seconds);
}

struct TracedRound
{
    double wallS = 0;
    double machineBuildS = 0;
};

/**
 * One traced pass over the sweep's cells: decorated workload, RAD,
 * policy and network, each cell built and run as
 * Machine(params, spec, wl).run().
 */
TracedRound
runTraced(const Sweep &sweep, const WorkloadDef &d,
          const std::vector<Input> &inputs, Checker &check)
{
    TracedRound tr;
    auto t0 = Clock::now();
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const Cell &cell = sweep.cells()[i];
        const Input &in = inputs[i / cellsPerRow(d)];
        try {
            std::unique_ptr<Workload> inner;
            if (d.replayTrace)
                inner = std::make_unique<StreamTraceWorkload>(
                    in.tracePath);
            else
                inner = std::make_unique<SnapshotWorkload>(in.snapshot);
            perfbench::TracedWorkload wl(std::move(inner));
            Params p = cell.params;
            p.networkModel = perfbench::tracedNetworkId(p.networkModel);
            ProtocolSpec spec = perfbench::tracedSpec(cell.proto);
            wl.reset();
            auto b0 = Clock::now();
            Machine m(p, spec, wl);
            tr.machineBuildS += secondsSince(b0);
            RunStats s;
            {
                perfbench::Span run(perfbench::Sim);
                s = m.run();
            }
            check.check(i, s, "traced");
        } catch (const std::exception &e) {
            check.fail(i, "traced", e.what());
        }
    }
    tr.wallS = secondsSince(t0);
    return tr;
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/** Geometric mean over rows of rnuma / min(ccnuma, scoma) ticks. */
double
rnumaVsBestBase(const Sweep &sweep, const Checker &check)
{
    std::map<std::string, std::map<std::string, double>> ticks;
    for (std::size_t i = 0; i < sweep.size(); ++i)
        if (const RunStats *s = check.reference(i))
            ticks[sweep.cells()[i].app][sweep.cells()[i].config] =
                double(s->ticks);
    double logSum = 0;
    std::size_t rows = 0;
    for (auto &[row, t] : ticks) {
        if (!t.count("rnuma") || !t.count("ccnuma") || !t.count("scoma"))
            continue;
        double best = std::min(t["ccnuma"], t["scoma"]);
        if (best > 0 && t["rnuma"] > 0) {
            logSum += std::log(t["rnuma"] / best);
            ++rows;
        }
    }
    return rows ? std::exp(logSum / double(rows)) : 0;
}

//--------------------------------------------------------------------------
// Output.
//--------------------------------------------------------------------------

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

double
ratio(double num, double den, double ifEmpty = 0)
{
    return den > 0 ? num / den : ifEmpty;
}

/** Whole-sweep sums of the RunStats counters the layer metrics use. */
std::vector<Metric>
countMetrics(const Sweep &sweep, const Checker &check,
             const WorkloadDef &d, const std::vector<Input> &inputs)
{
    RunStats sum;
    std::uint64_t netMessages = 0, policyReplacements = 0,
                  policyZeroHit = 0, traceBytes = 0, traceRefs = 0;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const RunStats *s = check.reference(i);
        if (!s)
            continue;
        sum.mergeFrom(*s);
        sum.events += s->events;
        sum.dirBits += s->dirBits;
        netMessages += s->net.totalMessages();
        if (sweep.cells()[i].proto.makePolicy) {
            policyReplacements += s->scomaReplacements;
            policyZeroHit += s->evictionsZeroHit;
        }
        const Input &in = inputs[i / cellsPerRow(d)];
        if (!in.tracePath.empty()) {
            traceBytes += in.traceBytes;
            traceRefs += s->refs;
        }
    }
    double refs = double(sum.refs);
    return {
        {"sim.events", double(sum.events), "count"},
        {"sim.events_per_ref", ratio(double(sum.events), refs), "ratio"},
        {"mem.l1_miss_ratio",
         ratio(double(sum.l1Misses), double(sum.l1Hits + sum.l1Misses)),
         "ratio"},
        {"mem.bus_wait_cycles", double(sum.busWait), "cycles"},
        {"rad.block_cache_hits", double(sum.blockCacheHits), "count"},
        {"rad.page_cache_hits", double(sum.pageCacheHits), "count"},
        {"rad.remote_fetches", double(sum.remoteFetches), "count"},
        {"rad.refetch_ratio",
         ratio(double(sum.refetches), double(sum.remoteFetches)),
         "ratio"},
        {"proto.invalidations", double(sum.invalidationsSent), "count"},
        {"proto.forwards", double(sum.forwards), "count"},
        {"proto.dir_bits", double(sum.dirBits), "bits"},
        {"net.messages", double(netMessages), "count"},
        {"net.ni_wait_cycles", double(sum.niWait), "cycles"},
        {"os.relocations", double(sum.relocations), "count"},
        {"os.cycles_share",
         ratio(double(sum.osCycles), double(sum.stallCycles)), "ratio"},
        // No page-cache replacement under a policy wastes nothing.
        {"policy.useful_eviction_ratio",
         1.0 - ratio(double(policyZeroHit), double(policyReplacements)),
         "ratio"},
        {"workload.trace_bytes_per_ref",
         ratio(double(traceBytes), double(traceRefs)), "B/ref"},
    };
}

void
printResult(bool correct, std::size_t attempted, std::size_t failed,
            const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {",
                correct ? "true" : "false", attempted, failed);
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

void
printDigest(const std::string &name, std::uint64_t seed,
            const Sweep &sweep, const Checker &check)
{
    Fnv all;
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const Cell &c = sweep.cells()[i];
        const RunStats *s = check.reference(i);
        std::uint64_t dg = s ? statsDigest(*s) : 0;
        all.add(dg);
        std::printf("perfbench cell %s/%s refs=%llu ticks=%llu "
                    "digest=%016llx\n",
                    c.app.c_str(), c.config.c_str(),
                    s ? (unsigned long long)s->refs : 0ULL,
                    s ? (unsigned long long)s->ticks : 0ULL,
                    (unsigned long long)dg);
    }
    std::printf("perfbench digest workload=%s seed=%llu cells=%zu "
                "runstats=%016llx\n",
                name.c_str(), (unsigned long long)seed, sweep.size(),
                (unsigned long long)all.h);
}

bool
releaseBuild()
{
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
    return false;
#else
    return std::string(PERFBENCH_BUILD_TYPE) == "Release";
#endif
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    std::string scratch = ".";
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: rnuma_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1 [--scratch DIR] "
                 "[--tiny]\n",
                 why.c_str());
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        std::string k = argv[i];
        if (k == "--tiny") {
            a.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        std::string v = argv[++i];
        try {
            std::size_t used = 0;
            if (k == "--workload") {
                a.workload = v;
                haveWorkload = true;
                used = v.size();
            } else if (k == "--seed") {
                a.seed = std::stoull(v, &used);
            } else if (k == "--seconds") {
                a.seconds = std::stod(v, &used);
            } else if (k == "--trace") {
                a.trace = std::stoi(v, &used) != 0;
            } else if (k == "--scratch") {
                a.scratch = v;
                used = v.size();
            } else {
                usage("unknown argument " + k);
            }
            if (used != v.size())
                usage("bad value for " + k + ": " + v);
        } catch (const std::logic_error &) {
            usage("bad value for " + k + ": " + v);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    if (!(a.seconds > 0))
        usage("--seconds must be positive");
    return a;
}

constexpr int setupRepeats = 21;

int
runBenchmark(const Args &a)
{
    const WorkloadDef d = defineWorkload(a.workload, a.tiny);

    // Setup, several times; the last inputs are the ones measured.
    std::vector<Input> inputs;
    std::vector<double> setupS, genS, recordS;
    for (int r = 0; r < setupRepeats; ++r) {
        SetupTimes t;
        inputs = generateInputs(d, a.seed, a.scratch, t);
        setupS.push_back(t.genS + t.recordS);
        genS.push_back(t.genS);
        recordS.push_back(t.recordS);
    }

    WorkloadCache cache;
    for (const Input &in : inputs)
        cache.insert(in.key, in.snapshot);
    const Sweep sweep =
        buildSweep(a.workload, d, inputs, a.seed, d.replayTrace);
    const SweepRunner runner = SweepRunner(1).shareCache(&cache);
    const std::vector<Sweep> cells = splitCells(sweep);
    Checker check(sweep, d, inputs);

    // Warm-up round: fills the host caches and sets each cell's
    // reference RunStats; it is not timed.
    Round warm;
    CpuRotation cpus;
    runRound(runner, cells, check, "untraced", warm, cpus, 0);
    // Setup plus one pass over every cell: read here, so the figure
    // does not depend on how many timed rounds fit.
    const double rssMb = peakRssMb();

    double untracedSeconds = a.trace ? a.seconds / 3 : a.seconds;
    std::vector<Round> rounds;
    repeatWithin(untracedSeconds, [&] {
        Round r;
        if (runRound(runner, cells, check, "untraced", r, cpus,
                     rounds.size() + 1))
            rounds.push_back(r);
    });
    cpus.restore();

    std::vector<TracedRound> traced;
    perfbench::SpanCost spanCost;
    if (a.trace) {
        spanCost = perfbench::calibrateSpanCost();
        repeatWithin(a.seconds - untracedSeconds, [&] {
            traced.push_back(runTraced(sweep, d, inputs, check));
        });
    }

    // A replayed trace must reproduce the in-memory run of the same
    // generated workload.
    if (d.replayTrace) {
        Sweep inMemory =
            buildSweep(a.workload, d, inputs, a.seed, false);
        Round r;
        runRound(runner, splitCells(inMemory), check, "in-memory", r, cpus,
                 0);
        cpus.restore();
    }

    for (const Input &in : inputs)
        if (!in.tracePath.empty())
            std::filesystem::remove(in.tracePath);

    std::printf("perfbench build: compiler=%s build_type=%s nproc=%u\n",
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
                std::thread::hardware_concurrency());
    printDigest(a.workload, a.seed, sweep, check);

    const double wall = sumOfFastest(rounds, &Round::wallS);
    const double refs = rounds.empty() ? 0 : double(rounds[0].refs);
    std::vector<Metric> metrics;
    if (!a.trace) {
        metrics = {
            {"refs_per_s", ratio(refs, sumOfFastest(rounds, &Round::cellsS)),
             "refs/s"},
            {"wall_s", wall, "s"},
            {"setup_s", median(setupS), "s"},
            {"peak_rss_mb", rssMb, "MB"},
            {"rnuma_vs_best_base", rnumaVsBestBase(sweep, check),
             "ratio"},
        };
        for (const Round &r : rounds)
            std::printf("perfbench round wall_s=%.4f refs_per_s=%.0f\n",
                        sum(r.wallS), ratio(double(r.refs), sum(r.cellsS)));
        std::printf("perfbench %zu timed rounds; median round wall_s=%.4f\n",
                    rounds.size(),
                    median(collect(rounds, [](const Round &r) {
                        return sum(r.wallS);
                    })));
    } else {
        const perfbench::LayerTotals &t = perfbench::tracer().totals;
        double n = double(traced.size());
        double corrected[numLayers];
        double total = 0;
        for (int l = 0; l < numLayers; ++l) {
            corrected[l] =
                perfbench::correctedSelfNs(t, Layer(l), spanCost) / n;
            total += corrected[l];
        }
        std::printf("perfbench layers (per traced round, %zu rounds, "
                    "span cost %.1f ns):\n",
                    traced.size(), spanCost.totalNs());
        std::printf("  %-9s %12s %10s %10s %8s %9s\n", "layer", "calls",
                    "raw_s", "self_s", "share", "ns/call");
        double rawTotal = 0;
        for (int l = 0; l < numLayers; ++l) {
            double calls = double(t.calls[l]) / n;
            double raw = double(t.selfNs[l]) / n / 1e9;
            rawTotal += raw;
            std::string name = perfbench::layerNames[l];
            std::printf("  %-9s %12.0f %10.4f %10.4f %7.1f%% %9.1f\n",
                        name.c_str(), calls, raw, corrected[l] / 1e9,
                        100 * ratio(corrected[l], total),
                        ratio(corrected[l], calls));
            metrics.push_back({name + ".calls", calls, "count"});
            metrics.push_back(
                {name + ".self_s", corrected[l] / 1e9, "s"});
            metrics.push_back(
                {name + ".self_share", ratio(corrected[l], total),
                 "ratio"});
            metrics.push_back(
                {name + ".ns_per_call", ratio(corrected[l], calls),
                 "ns"});
        }
        std::vector<double> tw, build;
        double twSum = 0;
        for (const TracedRound &r : traced) {
            tw.push_back(r.wallS);
            build.push_back(r.machineBuildS);
            twSum += r.wallS;
        }
        double tracedWall = *std::min_element(tw.begin(), tw.end());
        std::printf("  raw self times sum to %.4f s of %.4f s mean "
                    "traced round wall\n",
                    rawTotal, twSum / n);
        std::vector<Metric> tail = {
            {"setup.workload_gen_s", median(genS), "s"},
            {"setup.trace_record_s", median(recordS), "s"},
            {"setup.machine_build_s", median(build), "s"},
            {"driver.overhead_s",
             median(collect(rounds,
                            [](const Round &r) {
                                return sum(r.wallS) - sum(r.cellsS);
                            })),
             "s"},
            {"driver.workload_cache_hit_ratio",
             median(collect(rounds,
                            [&](const Round &r) {
                                return ratio(double(r.cacheHits),
                                             double(sweep.size()));
                            })),
             "ratio"},
            {"trace.overhead_ratio", ratio(tracedWall, wall),
             "ratio"},
            {"trace.span_cost_ns", spanCost.totalNs(), "ns"},
        };
        metrics.insert(metrics.end(), tail.begin(), tail.end());
        std::vector<Metric> counts = countMetrics(sweep, check, d, inputs);
        metrics.insert(metrics.end(), counts.begin(), counts.end());
    }

    std::size_t failed = check.failures();
    bool ok = failed == 0 && !rounds.empty();
    printResult(ok, sweep.size(), failed, metrics);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parseArgs(argc, argv);
    if (!releaseBuild()) {
        std::fprintf(stderr,
                     "perfbench: refusing to report from a '%s' build; "
                     "sanitizer and Debug builds measure a different "
                     "program (configure with "
                     "-DCMAKE_BUILD_TYPE=Release)\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }
    // Panics throw, so a failing cell is counted instead of aborting.
    ScopedPanicToException guard;
    try {
        return runBenchmark(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
