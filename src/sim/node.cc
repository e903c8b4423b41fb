#include "sim/node.hh"

#include "common/logging.hh"

namespace rnuma
{

Node::Node(const Params &params, NodeId id, const ProtocolSpec &spec,
           Memory &memory, GlobalProtocol &proto_, RunStats &stats_)
    : p(params), id_(id), proto(proto_), stats(stats_), mem(memory),
      bus_(params.busOccupancy), pageTable_(),
      vm_(params, id, stats_)
{
    l1s.reserve(p.cpusPerNode);
    for (std::size_t i = 0; i < p.cpusPerNode; ++i)
        l1s.emplace_back(p.l1Size, p.blockSize, p.l1Assoc);
    rad_ = makeRad(spec, p, id,
                   RadDeps{proto, stats, bus_, mem, vm_, pageTable_,
                           *this});
}

CacheLine *
Node::snoopOwned(std::size_t cpu, Addr block)
{
    for (std::size_t i = 0; i < l1s.size(); ++i) {
        if (i == cpu)
            continue;
        CacheLine *line = l1s[i].find(block);
        if (line && isDirty(line->state))
            return line;
    }
    return nullptr;
}

void
Node::invalidateOtherL1s(std::size_t cpu, Addr block)
{
    for (std::size_t i = 0; i < l1s.size(); ++i)
        if (i != cpu)
            l1s[i].invalidate(block);
}

bool
Node::nodeHasWritePermission(Addr block, bool is_home) const
{
    if (is_home)
        return proto.onlyHolder(id_, block);
    return rad_->hasWritePermission(block);
}

void
Node::fillL1(Tick now, std::size_t cpu, Addr block, CacheState st)
{
    Cache &l1 = l1s[cpu];
    Cache::Victim v;
    CacheLine *nl = l1.allocate(block, v);
    nl->state = st;
    l1.touch(nl);
    if (!v.valid || !isDirty(v.state))
        return;
    // Dirty victim: write it back to the node-level holder. The
    // writeback buffer hides the latency from the CPU; occupancy of
    // the destination is still charged.
    NodeId vhome = proto.homeOf(v.addr);
    if (vhome == id_) {
        mem.access(now, v.addr);
    } else {
        rad_->l1Writeback(now, v.addr);
    }
}

Tick
Node::access(Tick now, std::size_t cpu, Addr addr, bool write,
             bool is_home)
{
    Addr block = blockOf(addr);
    Cache &l1 = l1s[cpu];
    CacheLine *line = l1.find(block);

    if (line && line->valid()) {
        if (!write || line->state == CacheState::Modified) {
            l1.touch(line);
            stats.l1Hits++;
            return now;
        }
        // Write hit on a non-writable line: permission upgrade.
        stats.upgrades++;
        Tick t = bus_.acquire(now) + p.busLatency;
        if (nodeHasWritePermission(block, is_home)) {
            // Another on-node structure holds the block writable; a
            // bus transaction transfers ownership locally.
            invalidateOtherL1s(cpu, block);
            line->state = CacheState::Modified;
            l1.touch(line);
            return t;
        }
        Tick done;
        if (is_home) {
            FetchResult res = proto.fetch(t, id_, block,
                                          ReqType::Upgrade);
            stats.invalidationsSent +=
                static_cast<std::uint64_t>(res.invalidations);
            if (res.invalidations > 0)
                stats.markSharedWrite(addr / p.pageSize);
            done = res.done;
        } else {
            RadAccess ra = rad_->access(t, addr, true, true);
            done = ra.done;
        }
        invalidateOtherL1s(cpu, block);
        // The RAD access may have relocated the page and purged this
        // very line; re-probe rather than resurrecting a stale
        // pointer.
        line = l1.find(block);
        if (line && line->valid()) {
            line->state = CacheState::Modified;
            l1.touch(line);
        } else {
            fillL1(done, cpu, block, CacheState::Modified);
        }
        return done;
    }

    // L1 miss.
    stats.l1Misses++;
    Tick t = bus_.acquire(now) + p.busLatency;

    // On-node snoop: MBus supports cache-to-cache transfer only for
    // owned lines; clean-shared copies cannot supply data
    // (Section 4).
    CacheLine *sup = snoopOwned(cpu, block);
    if (sup) {
        Tick done = t + p.sramAccess;
        stats.nodeTransfers++;
        if (write) {
            invalidateOtherL1s(cpu, block);
            fillL1(done, cpu, block, CacheState::Modified);
        } else {
            if (sup->state == CacheState::Modified)
                sup->state = CacheState::Owned;
            fillL1(done, cpu, block, CacheState::Shared);
        }
        return done;
    }

    Tick done;
    CacheState fill_state = write ? CacheState::Modified
                                  : CacheState::Shared;
    if (is_home) {
        FetchResult res = proto.fetch(t, id_, block,
                                      write ? ReqType::GetX
                                            : ReqType::GetS);
        stats.invalidationsSent +=
            static_cast<std::uint64_t>(res.invalidations);
        if (write && res.invalidations > 0)
            stats.markSharedWrite(addr / p.pageSize);
        if (res.threeHop)
            stats.forwards++;
        else
            stats.localFills++;
        done = res.done;
    } else {
        RadAccess ra = rad_->access(t, addr, write, false);
        done = ra.done;
        fill_state = ra.fillState;
    }
    if (write)
        invalidateOtherL1s(cpu, block);
    fillL1(done, cpu, block, fill_state);
    return done;
}

CacheState
Node::invalidateL1Block(Addr block)
{
    block = blockOf(block);
    CacheState strongest = CacheState::Invalid;
    auto rank = [](CacheState s) -> int {
        switch (s) {
          case CacheState::Modified:  return 4;
          case CacheState::Owned:     return 3;
          case CacheState::Exclusive: return 2;
          case CacheState::Shared:    return 1;
          case CacheState::Invalid:   return 0;
        }
        return 0;
    };
    for (auto &l1 : l1s) {
        CacheState s = l1.invalidate(block);
        if (rank(s) > rank(strongest))
            strongest = s;
    }
    return strongest;
}

bool
Node::invalidateAll(Addr block)
{
    block = blockOf(block);
    CacheState l1st = invalidateL1Block(block);
    bool rad_dirty = rad_->invalidateBlock(block);
    return isDirty(l1st) || rad_dirty;
}

void
Node::downgradeAll(Addr block)
{
    block = blockOf(block);
    for (auto &l1 : l1s) {
        CacheLine *line = l1.find(block);
        if (line && line->valid())
            line->state = CacheState::Shared;
    }
    rad_->downgradeBlock(block);
}

} // namespace rnuma
