/**
 * @file
 * Host-time tracing for the benchmark's traced run. Every layer is
 * timed from outside the simulator, by decorating an interface the
 * library already lets a caller substitute:
 *
 *  - Workload::next/peek                      -> "workload"
 *  - Rad::access/invalidateBlock/downgradeBlock/l1Writeback/
 *    hasWritePermission, via ProtocolSpec::makeRad -> "rad"
 *  - RelocationPolicy::onRefetch/onRelocated/onEvicted/reset,
 *    via hybridSpec's policy factory          -> "policy"
 *  - NetworkModel::send/post, via a registered wrapper
 *    NetworkSpec                              -> "net"
 *  - Machine::run, the root span; its self time is the remainder
 *    (event queue, node L1/bus, CPU stepping) -> "sim"
 *
 * A span's self time is its duration minus the durations of the spans
 * opened inside it. The tracer is a plain global: the traced run is
 * serial (one Machine at a time, on the main thread), and nothing
 * else may open spans concurrently.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "net/network.hh"
#include "proto/registry.hh"
#include "workload/workload.hh"

namespace perfbench
{

enum Layer : int
{
    Sim,
    RadLayer,
    Net,
    PolicyLayer,
    WorkloadLayer,
    numLayers
};

/** Metric-name prefix of each layer ("sim", "rad", ...). */
extern const char *const layerNames[numLayers];

/** Accumulated span counters of the traced run. */
struct LayerTotals
{
    std::uint64_t calls[numLayers] = {};
    /** Spans opened directly inside a span of each layer. */
    std::uint64_t childCalls[numLayers] = {};
    /** Raw self time: duration minus child-span durations. */
    std::int64_t selfNs[numLayers] = {};
};

/** The global tracer state (see the file comment on threading). */
struct Tracer
{
    LayerTotals totals;
    /** Child-duration slot of the innermost open span. */
    std::int64_t *childSlot = nullptr;
    /** Layer of the innermost open span; -1 outside any span. */
    int openLayer = -1;
};

Tracer &tracer();

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** RAII span: one call into @p layer. */
class Span
{
  public:
    explicit Span(Layer layer)
        : t_(tracer()), layer_(layer), parentSlot_(t_.childSlot),
          parentLayer_(t_.openLayer)
    {
        t_.childSlot = &child_;
        t_.openLayer = layer;
        start_ = nowNs();
    }

    ~Span()
    {
        std::int64_t dur = nowNs() - start_;
        t_.totals.calls[layer_]++;
        t_.totals.selfNs[layer_] += dur - child_;
        if (parentLayer_ >= 0)
            t_.totals.childCalls[parentLayer_]++;
        if (parentSlot_)
            *parentSlot_ += dur;
        t_.childSlot = parentSlot_;
        t_.openLayer = parentLayer_;
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t_;
    Layer layer_;
    std::int64_t *parentSlot_;
    int parentLayer_;
    std::int64_t child_ = 0;
    std::int64_t start_ = 0;
};

/**
 * Cost of an empty span, split where it lands: `inside` is recorded
 * as the span's own self time, `outside` as its parent's.
 */
struct SpanCost
{
    double insideNs = 0;
    double outsideNs = 0;

    double totalNs() const { return insideNs + outsideNs; }
};

/**
 * Measure the empty-span cost (median of several batches). Resets
 * the tracer's totals, so call it before a traced run.
 */
SpanCost calibrateSpanCost();

/**
 * Self time of @p layer with the tracer's own cost removed: the
 * inside part of the layer's spans and the outside part of the spans
 * opened within them. Not clamped: a layer whose real cost is below
 * the calibration error can read slightly negative.
 */
double correctedSelfNs(const LayerTotals &t, Layer layer,
                       const SpanCost &cost);

/** Workload decorator: times next/peek, forwards everything. */
class TracedWorkload final : public rnuma::Workload
{
  public:
    explicit TracedWorkload(std::unique_ptr<rnuma::Workload> inner)
        : inner_(std::move(inner))
    {}

    std::size_t numCpus() const override { return inner_->numCpus(); }

    const rnuma::Ref &
    next(rnuma::CpuId cpu) override
    {
        Span s(WorkloadLayer);
        return inner_->next(cpu);
    }

    const rnuma::Ref &
    peek(rnuma::CpuId cpu) override
    {
        Span s(WorkloadLayer);
        return inner_->peek(cpu);
    }

    void reset() override { inner_->reset(); }
    const std::string &name() const override { return inner_->name(); }
    rnuma::Tick maxThink() const override { return inner_->maxThink(); }

  private:
    std::unique_ptr<rnuma::Workload> inner_;
};

/**
 * @p spec with every RAD (and, for a hybrid spec, every relocation
 * policy) wrapped in a timing decorator. A spec with a policy factory
 * is rebuilt through hybridSpec, the only constructor of such specs.
 */
rnuma::ProtocolSpec tracedSpec(const rnuma::ProtocolSpec &spec);

/**
 * Id of a registered NetworkSpec wrapping @p inner's model in a
 * timing decorator; registers it on first use.
 */
std::string tracedNetworkId(const std::string &inner);

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
