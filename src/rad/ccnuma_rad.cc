#include "rad/ccnuma_rad.hh"

#include "common/logging.hh"

namespace rnuma
{

CcNumaRad::CcNumaRad(const Params &params, NodeId node, RadDeps deps)
    : Rad(params, node, deps),
      bc(params.blockCacheSize, params, params.infiniteBlockCache)
{
}

Tick
CcNumaRad::mapIfNeeded(Tick now, Addr page)
{
    if (d.pageTable.modeOf(page) != PageMode::Unmapped)
        return now;
    // First processor on this node to access the remote page takes a
    // soft page fault; the OS maps it to the CC-NUMA global physical
    // address (Figure 2b).
    Tick t = d.vm.chargeMapFault(now);
    d.pageTable.set(page, PageMode::CCNuma);
    return t;
}

RadAccess
CcNumaRad::access(Tick now, Addr addr, bool write, bool upgrade)
{
    (void)upgrade; // permission requests resolve via the same paths
    Addr page = pageOf(addr);
    Addr block = blockOf(addr);
    Tick t = mapIfNeeded(now, page);

    CacheLine *line = bc.find(block);
    if (line && line->valid()) {
        if (!write || line->state == CacheState::Modified) {
            // Block cache hit: SRAM access plus the bus transfer.
            bc.touch(line);
            d.stats.blockCacheHits++;
            return {t + p.sramAccess + p.busLatency,
                    ServiceKind::BlockCache,
                    write ? CacheState::Modified : CacheState::Shared};
        }
        // Write to a read-only block: permission-only upgrade.
        FetchResult res = d.proto.fetch(t, nodeId, block,
                                        ReqType::Upgrade);
        d.stats.invalidationsSent +=
            static_cast<std::uint64_t>(res.invalidations);
        d.stats.markSharedWrite(page);
        line->state = CacheState::Modified;
        bc.touch(line);
        return {res.done, ServiceKind::Remote, CacheState::Modified};
    }

    // Block cache miss: allocate a frame, writing back a dirty victim
    // (Figure 2b), then request the block from the home node.
    Cache::Victim victim;
    CacheLine *nl = bc.allocate(block, victim);
    if (victim.valid && victim.state == CacheState::Modified) {
        // Inclusion holds for read-write blocks: purge L1 copies and
        // voluntarily write the block back home, which records this
        // node in the directory's prior-owner set.
        d.l1.invalidateL1Block(victim.addr);
        d.proto.writeback(t, nodeId, victim.addr);
        d.stats.writebacks++;
    }
    // Read-only victims are dropped silently (non-notifying), so the
    // directory keeps this node in the sharer set — the basis of
    // read refetch detection.

    FetchResult res = d.proto.fetch(t, nodeId, block,
                                    write ? ReqType::GetX : ReqType::GetS);
    nl->state = write ? CacheState::Modified : CacheState::Shared;
    bc.touch(nl);
    d.stats.recordFetch(page, res.kind, write, true);
    d.stats.invalidationsSent +=
        static_cast<std::uint64_t>(res.invalidations);
    if (res.threeHop)
        d.stats.forwards++;

    Tick done = d.bus.acquire(res.done) + p.busLatency;
    return {done, ServiceKind::Remote,
            write ? CacheState::Modified : CacheState::Shared};
}

bool
CcNumaRad::invalidateBlock(Addr block)
{
    return bc.invalidate(blockOf(block)) == CacheState::Modified;
}

void
CcNumaRad::downgradeBlock(Addr block)
{
    bc.downgrade(blockOf(block));
}

void
CcNumaRad::l1Writeback(Tick now, Addr block)
{
    block = blockOf(block);
    CacheLine *line = bc.find(block);
    if (line && line->valid()) {
        line->state = CacheState::Modified;
        bc.touch(line);
        return;
    }
    // Inclusion should make this unreachable, but stay safe: send the
    // dirty data home as a voluntary writeback.
    d.proto.writeback(now, nodeId, block);
    d.stats.writebacks++;
}

bool
CcNumaRad::hasWritePermission(Addr block) const
{
    return bc.ownsBlock(blockOf(block));
}

} // namespace rnuma
