/**
 * @file
 * The inter-node interconnect, behind the NetworkModel interface.
 *
 * The paper's machine (Section 4) uses a point-to-point network with
 * a constant 100-cycle latency and contention modeled at the network
 * interfaces; that model is the `Network` class below, registered as
 * "constant" and still the default. Scaling the machine past the
 * paper's 8 nodes makes wire latency hop-dependent, so the interface
 * abstracts exactly the three operations the protocol layer uses —
 * send (synchronous, returns arrival time), post (asynchronous NI
 * accounting), and latency(from, to) (the contention-free wire time
 * the protocol uses to bound invalidation acknowledgements) — plus
 * the per-kind message counters the stats layer reports.
 *
 * Concrete topologies (mesh-2d, fat-tree) live in net/topology.hh;
 * selection is by string id through net/registry.hh, mirroring the
 * protocol registry.
 */

#ifndef RNUMA_NET_NETWORK_HH
#define RNUMA_NET_NETWORK_HH

#include <cstdint>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/bus.hh"

namespace rnuma
{

/** The machine-wide interconnect interface. */
class NetworkModel
{
  public:
    /**
     * @param nodes        node count
     * @param ni_occupancy per-message occupancy of a network interface
     */
    NetworkModel(std::size_t nodes, Tick ni_occupancy);
    virtual ~NetworkModel() = default;

    /**
     * Send one message; returns the arrival completion time at the
     * destination. Local (from == to) messages bypass the network
     * entirely and arrive immediately.
     *
     * The source NI serializes outgoing messages; the wire adds the
     * (possibly hop-dependent, possibly contended) transit time. The
     * destination side's processing contention is modeled by the
     * receiving controller (GlobalProtocol's per-node resource), so
     * implementations must not charge it again.
     */
    virtual Tick send(Tick now, NodeId from, NodeId to,
                      MsgKind kind) = 0;

    /**
     * Account a message's NI occupancy without stalling the sender
     * (used for asynchronous writebacks and invalidations whose
     * latency is charged separately).
     */
    virtual void post(Tick now, NodeId from, NodeId to,
                      MsgKind kind) = 0;

    /**
     * Contention-free wire latency between two nodes. Topology
     * models return the hop-dependent transit time; the constant
     * model returns its fixed latency for every pair (including
     * from == to, preserving the historical acknowledgement-bound
     * arithmetic bit for bit).
     */
    virtual Tick latency(NodeId from, NodeId to) const = 0;

    /**
     * Mean contention-free latency over all ordered pairs of
     * distinct nodes, rounded to the nearest tick: the scalar the
     * analytic model uses where the old code used
     * Params::netLatency. The constant model overrides this to
     * return exactly that parameter.
     */
    virtual Tick meanLatency() const;

    /**
     * Retired lookahead query: nothing in src/ calls it. It stays
     * declared only because perfbench/trace.cc overrides it; the two
     * go together at the next change to perfbench/.
     */
    virtual Tick minLatency() const { return 0; }

    /** Aggregate NI (and link, where modeled) queueing delay. */
    virtual Tick waited() const;

    /** Total messages of one kind. */
    std::uint64_t
    count(MsgKind kind) const
    {
        return counts[static_cast<std::size_t>(kind)];
    }

    /** Total messages of all kinds. */
    std::uint64_t totalMessages() const;

    /** The per-kind counters as a value-semantic stats record. */
    NetworkStats stats() const;

    std::size_t nodes() const { return nis.size(); }

  protected:
    /** Bump the per-kind counter; every send/post must call this. */
    void
    countMsg(MsgKind kind)
    {
        counts[static_cast<std::size_t>(kind)]++;
    }

    Resource &ni(NodeId n);

    std::vector<Resource> nis;

  private:
    std::uint64_t counts[numMsgKinds] = {};
};

/**
 * The paper's constant-latency point-to-point network, registered as
 * "constant": every remote message takes exactly `latency` on the
 * wire, contention exists only at the network interfaces.
 */
class Network : public NetworkModel
{
  public:
    /**
     * @param nodes       node count
     * @param latency     fixed point-to-point latency
     * @param ni_occupancy per-message occupancy of a network interface
     */
    Network(std::size_t nodes, Tick latency, Tick ni_occupancy);

    Tick send(Tick now, NodeId from, NodeId to,
              MsgKind kind) override;
    void post(Tick now, NodeId from, NodeId to,
              MsgKind kind) override;
    Tick latency(NodeId from, NodeId to) const override;
    Tick meanLatency() const override { return netLatency; }

    Tick latency() const { return netLatency; }

  private:
    Tick netLatency;
};

} // namespace rnuma

#endif // RNUMA_NET_NETWORK_HH
