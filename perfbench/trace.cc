#include "trace.hh"

#include <algorithm>
#include <vector>

#include "net/registry.hh"

namespace perfbench
{

using namespace rnuma;

const char *const layerNames[numLayers] = {"sim", "rad", "net",
                                           "policy", "workload"};

Tracer &
tracer()
{
    static Tracer t;
    return t;
}

namespace
{

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

/** Rad decorator: times the calls the node makes into its RAD. */
class TracedRad final : public Rad
{
  public:
    TracedRad(const Params &p, NodeId node, RadDeps deps,
              std::unique_ptr<Rad> inner)
        : Rad(p, node, deps), inner_(std::move(inner))
    {}

    RadAccess
    access(Tick now, Addr addr, bool write, bool upgrade) override
    {
        Span s(RadLayer);
        return inner_->access(now, addr, write, upgrade);
    }

    bool
    invalidateBlock(Addr block) override
    {
        Span s(RadLayer);
        return inner_->invalidateBlock(block);
    }

    void
    downgradeBlock(Addr block) override
    {
        Span s(RadLayer);
        inner_->downgradeBlock(block);
    }

    void
    l1Writeback(Tick now, Addr block) override
    {
        Span s(RadLayer);
        inner_->l1Writeback(now, block);
    }

    bool
    hasWritePermission(Addr block) const override
    {
        Span s(RadLayer);
        return inner_->hasWritePermission(block);
    }

    bool
    accessConfined(Addr addr, bool write, NodeId lo,
                   NodeId hi) const override
    {
        return inner_->accessConfined(addr, write, lo, hi);
    }

    bool
    absorbsL1Writeback(Addr block) const override
    {
        return inner_->absorbsL1Writeback(block);
    }

  private:
    std::unique_ptr<Rad> inner_;
};

/** RelocationPolicy decorator: times the four notifications. */
class TracedPolicy final : public RelocationPolicy
{
  public:
    explicit TracedPolicy(std::unique_ptr<RelocationPolicy> inner)
        : inner_(std::move(inner))
    {}

    bool
    onRefetch(Addr page) override
    {
        Span s(PolicyLayer);
        return inner_->onRefetch(page);
    }

    void
    onRelocated(Addr page) override
    {
        Span s(PolicyLayer);
        inner_->onRelocated(page);
    }

    void
    onEvicted(Addr page, std::uint64_t residentHits) override
    {
        Span s(PolicyLayer);
        inner_->onEvicted(page, residentHits);
    }

    void
    reset(Addr page) override
    {
        Span s(PolicyLayer);
        inner_->reset(page);
    }

    bool wouldFire(Addr page) const override
    {
        return inner_->wouldFire(page);
    }
    std::uint64_t count(Addr page) const override
    {
        return inner_->count(page);
    }
    std::size_t trackedPages() const override
    {
        return inner_->trackedPages();
    }
    std::string describe() const override { return inner_->describe(); }

  private:
    std::unique_ptr<RelocationPolicy> inner_;
};

/**
 * NetworkModel decorator. The machine reads message counts from the
 * model it holds (the non-virtual stats()), so send/post count here
 * as well as in the wrapped model.
 */
class TracedNetwork final : public NetworkModel
{
  public:
    TracedNetwork(const Params &p, std::unique_ptr<NetworkModel> inner)
        : NetworkModel(p.numNodes, p.niOccupancy),
          inner_(std::move(inner))
    {}

    Tick
    send(Tick now, NodeId from, NodeId to, MsgKind kind) override
    {
        countMsg(kind);
        Span s(Net);
        return inner_->send(now, from, to, kind);
    }

    void
    post(Tick now, NodeId from, NodeId to, MsgKind kind) override
    {
        countMsg(kind);
        Span s(Net);
        inner_->post(now, from, to, kind);
    }

    Tick latency(NodeId from, NodeId to) const override
    {
        return inner_->latency(from, to);
    }
    Tick meanLatency() const override { return inner_->meanLatency(); }
    Tick minLatency() const override { return inner_->minLatency(); }
    Tick waited() const override { return inner_->waited(); }

  private:
    std::unique_ptr<NetworkModel> inner_;
};

} // namespace

SpanCost
calibrateSpanCost()
{
    constexpr int batches = 7;
    constexpr int spans = 200000;
    std::vector<double> inside, outside;
    Tracer &t = tracer();
    for (int b = 0; b < batches; ++b) {
        t = Tracer{};
        {
            Span parent(Sim);
            for (int i = 0; i < spans; ++i)
                Span child(WorkloadLayer);
        }
        inside.push_back(double(t.totals.selfNs[WorkloadLayer]) / spans);
        outside.push_back(double(t.totals.selfNs[Sim]) / spans);
    }
    t = Tracer{};
    return SpanCost{median(inside), median(outside)};
}

double
correctedSelfNs(const LayerTotals &t, Layer layer, const SpanCost &cost)
{
    return double(t.selfNs[layer]) -
           double(t.calls[layer]) * cost.insideNs -
           double(t.childCalls[layer]) * cost.outsideNs;
}

ProtocolSpec
tracedSpec(const ProtocolSpec &spec)
{
    ProtocolSpec out = spec;
    if (spec.makePolicy) {
        PolicyFactory inner = spec.makePolicy;
        out = hybridSpec(spec.id, spec.displayName, spec.description,
                         [inner](const Params &p) {
                             return std::unique_ptr<RelocationPolicy>(
                                 std::make_unique<TracedPolicy>(
                                     inner(p)));
                         });
    }
    RadFactory innerRad = out.makeRad;
    out.makeRad = [innerRad](const Params &p, NodeId node,
                             RadDeps deps) {
        return std::unique_ptr<Rad>(std::make_unique<TracedRad>(
            p, node, deps, innerRad(p, node, deps)));
    };
    return out;
}

std::string
tracedNetworkId(const std::string &inner)
{
    std::string id = "perfbench-traced-" + inner;
    if (findNetworkSpec(id))
        return id;
    NetworkSpec spec;
    spec.id = id;
    spec.displayName = id;
    spec.description = "timing decorator over " + inner;
    spec.make = [inner](const Params &p) {
        Params q = p;
        q.networkModel = inner;
        return std::unique_ptr<NetworkModel>(
            std::make_unique<TracedNetwork>(p,
                                            networkSpec(inner).make(q)));
    };
    NetworkRegistry::global().add(std::move(spec));
    return id;
}

} // namespace perfbench
