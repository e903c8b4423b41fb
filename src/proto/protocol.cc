#include "proto/protocol.hh"

#include "common/logging.hh"

namespace rnuma
{

GlobalProtocol::GlobalProtocol(const Params &params,
                               NetworkModel &net_,
                               const Placement &placement,
                               CoherenceSink &sink_,
                               std::vector<Memory *> memories)
    : p(params), net(net_), place(placement), sink(sink_),
      mems(std::move(memories)),
      dir_(params.blockSize, params.blocksPerPage(),
           DirConfig::fromParams(params))
{
    RNUMA_ASSERT(mems.size() == p.numNodes,
                 "need one memory per node, got ", mems.size());
    controllers.reserve(p.numNodes);
    for (std::size_t i = 0; i < p.numNodes; ++i)
        controllers.emplace_back(p.radOccupancy);
}

NodeId
GlobalProtocol::homeOf(Addr addr) const
{
    return place.homeOf(addr / p.pageSize);
}

bool
GlobalProtocol::nodeOwns(NodeId node, Addr block) const
{
    const ConstDirEntry e = dir_.peek(blockAlign(block));
    return e && e.owner() == node;
}

bool
GlobalProtocol::onlyHolder(NodeId node, Addr block) const
{
    const ConstDirEntry e = dir_.peek(blockAlign(block));
    if (!e)
        return true;
    if (e.hasOwner() && e.owner() != node)
        return false;
    return e.sharers.noneExcept(node);
}

MissKind
GlobalProtocol::classify(const DirEntry &e, NodeId requester,
                         ReqType type) const
{
    if (type == ReqType::Upgrade) {
        // The node holds valid data; this is permission traffic, not
        // a block refetch.
        return MissKind::Coherence;
    }
    if (e.sharers.test(requester) || e.prior.test(requester) ||
        e.owner() == requester) {
        // The directory believes the node already has the block: the
        // node lost it to capacity or conflict (Section 3.1).
        return MissKind::Refetch;
    }
    if (e.touched.test(requester))
        return MissKind::Coherence;
    return MissKind::Cold;
}

FetchResult
GlobalProtocol::fetch(Tick now, NodeId requester, Addr block,
                      ReqType type)
{
    block = blockAlign(block);
    NodeId home = homeOf(block);
    DirEntry e = dir_.entry(block);

    FetchResult res;
    res.kind = classify(e, requester, type);

    const bool local = requester == home;
    const bool write = type != ReqType::GetS;
    const bool need_data = type != ReqType::Upgrade;

    Tick t = now;
    if (!local) {
        // Outbound RAD traversal + request message to the home, then
        // the home controller performs the directory lookup. Local
        // accesses probe the directory in parallel with memory.
        t = controllers[requester].acquire(t) + p.radOccupancy;
        t = net.send(t, requester, home, MsgKind::Request);
        t = controllers[home].acquire(t) + p.dirAccess;
    }

    // Data acquisition: three-hop forward from a dirty owner, or a
    // home memory access.
    Tick data_at = t;
    if (need_data && e.hasOwner() && e.owner() != requester) {
        NodeId owner = e.owner();
        Tick f = net.send(t, home, owner, MsgKind::Forward);
        f = controllers[owner].acquire(f) + p.sramAccess;
        // The dirty data returns home asynchronously.
        net.post(f, owner, home, MsgKind::Writeback);
        data_at = net.send(f, owner, local ? home : requester,
                           MsgKind::Reply);
        res.threeHop = true;
        if (write) {
            // Owner loses its copy below, with the other sharers.
        } else {
            sink.downgradeNodeCopy(owner, block);
            e.sharers.set(owner);
            e.setOwner(invalidNode);
        }
    } else if (need_data) {
        data_at = mems[home]->access(t, block);
        if (!local)
            data_at = net.send(data_at, home, requester, MsgKind::Reply);
    } else if (!local) {
        // Upgrade acknowledgment carries no data.
        data_at = net.send(t, home, requester, MsgKind::Reply);
    }

    // Invalidations for writes: sent in parallel from the home; the
    // requester waits for data and all acknowledgments.
    Tick ack_at = t;
    if (write) {
        // Sparse sharer sets may over-approximate (broadcast or
        // region bits), so this loop can invalidate nodes that never
        // held the block — the modeled cost of a sparse directory.
        // Every true sharer is always covered.
        Tick worst_wire = 0;
        for (NodeId m = 0; m < p.numNodes; ++m) {
            bool holds = e.sharers.test(m) || e.owner() == m;
            if (!holds || m == requester)
                continue;
            sink.invalidateNodeCopy(m, block);
            net.post(t, home, m, MsgKind::Invalidate);
            e.sharers.reset(m);
            e.prior.reset(m);
            res.invalidations++;
            const Tick wire = net.latency(home, m);
            if (wire > worst_wire)
                worst_wire = wire;
        }
        if (res.invalidations > 0) {
            // Invalidations fan out in parallel; the requester waits
            // for the farthest round trip (out + ack). The constant
            // model's latency() is netLatency for every pair, which
            // reproduces the historical 2 * netLatency bound exactly.
            ack_at = t + 2 * worst_wire + p.niOccupancy;
        }
    }

    // Directory state update for the requester.
    e.touched.set(requester);
    e.prior.reset(requester);
    if (write) {
        e.sharers.reset();
        e.sharers.set(requester);
        e.setOwner(requester);
        res.exclusiveGrant = true;
    } else {
        if (e.owner() == requester) {
            // Defensive: a read request from the registered owner
            // means local state was lost without notification; treat
            // the home copy as current and clear ownership.
            e.setOwner(invalidNode);
        }
        e.sharers.set(requester);
        res.exclusiveGrant = e.sharerCount() == 1 && !e.hasOwner();
    }

    Tick done = data_at > ack_at ? data_at : ack_at;
    if (!local)
        done += p.radOccupancy;
    res.done = done;
    return res;
}

void
GlobalProtocol::writeback(Tick now, NodeId from, Addr block)
{
    block = blockAlign(block);
    NodeId home = homeOf(block);
    DirEntry e = dir_.entry(block);
    if (e.owner() == from) {
        e.setOwner(invalidNode);
        e.sharers.reset(from);
        // Remember the voluntary writeback so a later re-request is
        // classified as a read-write refetch (Section 3.1). The
        // ablation switch drops this extra state.
        if (p.priorOwnerState)
            e.prior.set(from);
    }
    net.post(now, from, home, MsgKind::Writeback);
}

void
GlobalProtocol::flushBlock(Tick now, NodeId from, Addr block, bool dirty)
{
    block = blockAlign(block);
    NodeId home = homeOf(block);
    DirEntry e = dir_.entry(block);
    e.sharers.reset(from);
    e.prior.reset(from);
    if (e.owner() == from)
        e.setOwner(invalidNode);
    net.post(now, from, home, MsgKind::Flush);
    (void)dirty;
}

void
GlobalProtocol::illegalSilentUpgrade(NodeId node, Addr block)
{
    RNUMA_PANIC("node ", node, " silently upgraded block ", block);
}

} // namespace rnuma
