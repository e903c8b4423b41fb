#include "rad/rnuma_rad.hh"

#include "common/logging.hh"

namespace rnuma
{

RNumaRad::RNumaRad(const Params &params, NodeId node, RadDeps deps,
                   BlockCache blocks, std::size_t frames,
                   PageMode first_touch,
                   std::unique_ptr<RelocationPolicy> policy)
    : Rad(params, node, deps), bc(std::move(blocks)),
      pc(frames, params.blocksPerPage()), firstTouch(first_touch),
      policy_(std::move(policy))
{
}

RNumaRad::RNumaRad(const Params &params, NodeId node, RadDeps deps,
                   std::unique_ptr<RelocationPolicy> policy)
    : RNumaRad(params, node, deps,
               BlockCache(params.rnumaBlockCacheSize, params, false),
               params.pageCacheFrames(), PageMode::CCNuma,
               std::move(policy))
{
    RNUMA_ASSERT(policy_, "the hybrid RAD needs a relocation policy");
}

std::unique_ptr<RNumaRad>
RNumaRad::ccNuma(const Params &params, NodeId node, RadDeps deps)
{
    return std::unique_ptr<RNumaRad>(new RNumaRad(
        params, node, deps,
        BlockCache(params.blockCacheSize, params,
                   params.infiniteBlockCache),
        0, PageMode::CCNuma, nullptr));
}

std::unique_ptr<RNumaRad>
RNumaRad::sComa(const Params &params, NodeId node, RadDeps deps)
{
    return std::unique_ptr<RNumaRad>(new RNumaRad(
        params, node, deps,
        BlockCache(params.blockSize * params.blockCacheAssoc, params,
                   false),
        params.pageCacheFrames(), PageMode::SComa, nullptr));
}

RNumaRad::Eviction
RNumaRad::evictLrm(Tick now)
{
    Eviction ev{pc.lrmVictim(), 0, 0};
    pc.forEachValid(ev.page, [&](std::size_t idx, FineTag tag) {
        Addr block = ev.page * p.pageSize + idx * p.blockSize;
        d.l1.invalidateL1Block(block);
        d.proto.flushBlock(now, nodeId, block,
                           tag == FineTag::ReadWrite);
        d.stats.flushedBlocks++;
        ev.flushed++;
    });
    // Read the residency's hit count before the frame is recycled.
    ev.hits = pc.hitsOf(ev.page);
    pc.erase(ev.page);
    d.pageTable.unmap(ev.page);
    d.stats.scomaReplacements++;
    return ev;
}

Tick
RNumaRad::allocate(Tick now, Addr page)
{
    // Page fault: clean a victim if no frame is free, then initialize
    // the page table, translation table, and tags.
    std::size_t flushed = pc.full() ? evictLrm(now).flushed : 0;
    Tick t = d.vm.chargePageOp(now, flushed);
    d.stats.pageFaults++;
    d.stats.scomaAllocations++;
    pc.insert(page);
    d.pageTable.set(page, PageMode::SComa);
    return t;
}

Tick
RNumaRad::relocate(Tick now, Addr page)
{
    d.stats.relocations++;

    // Make room: replace the least-recently-missed page if the cache
    // is full. The evicted page reverts to CC-NUMA on its next touch
    // (it becomes unmapped), and its counter restarts. Its hit count
    // is the utility signal the policy learns from and the
    // wasted-relocation observability counters record.
    Tick t = now;
    if (pc.full()) {
        Eviction ev = evictLrm(t);
        policy_->onEvicted(ev.page, ev.hits);
        d.stats.evictedPageHits += ev.hits;
        if (ev.hits == 0)
            d.stats.evictionsZeroHit++;
        t = d.vm.chargePageOp(t, ev.flushed);
    }
    pc.insert(page);

    // Move the locally referenced blocks: unmap the CC-NUMA page,
    // flush its blocks from the L1s and block cache into the new
    // frame, preserving read-only/read-write permission. Only the
    // blocks actually held locally are replicated (Section 5.1); the
    // directory state does not change, since the node keeps its
    // copies.
    std::size_t moved = 0;
    for (std::size_t idx = 0; idx < p.blocksPerPage(); ++idx) {
        Addr block = page * p.pageSize + idx * p.blockSize;
        CacheState l1 = d.l1.invalidateL1Block(block);
        CacheState bcs = bc.invalidate(block);
        bool dirty = isDirty(l1) || bcs == CacheState::Modified;
        bool valid = isValid(l1) || isValid(bcs);
        if (valid) {
            pc.setTag(page, idx,
                      dirty ? FineTag::ReadWrite : FineTag::ReadOnly);
            moved++;
        }
    }
    t = d.vm.chargePageOp(t, moved);
    d.pageTable.set(page, PageMode::SComa);
    policy_->onRelocated(page);
    return t;
}

RadAccess
RNumaRad::blockPath(Tick now, Addr addr, bool write)
{
    Addr page = pageOf(addr);
    Addr block = blockOf(addr);

    CacheLine *line = bc.find(block);
    if (line && line->valid()) {
        if (!write || line->state == CacheState::Modified) {
            // Block cache hit: SRAM access plus the bus transfer.
            bc.touch(line);
            d.stats.blockCacheHits++;
            return {now + p.sramAccess + p.busLatency,
                    ServiceKind::BlockCache,
                    write ? CacheState::Modified : CacheState::Shared};
        }
        // Write to a read-only block: permission-only upgrade.
        FetchResult res = d.proto.fetch(now, nodeId, block,
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
        d.proto.writeback(now, nodeId, victim.addr);
        d.stats.writebacks++;
    }
    // Read-only victims are dropped silently (non-notifying), so the
    // directory keeps this node in the sharer set — the basis of
    // read refetch detection.

    FetchResult res = d.proto.fetch(now, nodeId, block,
                                    write ? ReqType::GetX : ReqType::GetS);
    nl->state = write ? CacheState::Modified : CacheState::Shared;
    bc.touch(nl);
    d.stats.recordFetch(page, res.kind, write, true);
    d.stats.invalidationsSent +=
        static_cast<std::uint64_t>(res.invalidations);
    if (res.threeHop)
        d.stats.forwards++;

    Tick done = d.bus.acquire(res.done) + p.busLatency;

    // The reactive mechanism: report capacity/conflict refetches to
    // the relocation policy; when it fires, the RAD interrupts and
    // the OS relocates the page into the page cache (Figure 4b).
    // CC-NUMA has no policy and never relocates.
    if (policy_ && res.kind == MissKind::Refetch &&
        policy_->onRefetch(page)) {
        done = relocate(done, page);
    }

    return {done, ServiceKind::Remote,
            write ? CacheState::Modified : CacheState::Shared};
}

RadAccess
RNumaRad::pagePath(Tick now, Addr addr, bool write)
{
    Addr page = pageOf(addr);
    Addr block = blockOf(addr);
    std::size_t idx = blockIndex(addr);
    FineTag tag = pc.tag(page, idx);

    if (tag == FineTag::ReadWrite ||
        (tag == FineTag::ReadOnly && !write)) {
        // Fine-grain tag hit: serviced by local memory.
        Tick done = d.memory.access(now + p.sramAccess, addr);
        d.stats.pageCacheHits++;
        pc.recordHit(page);
        return {done, ServiceKind::PageCache,
                write ? CacheState::Modified : CacheState::Shared};
    }

    if (tag == FineTag::ReadOnly) {
        // Write to a read-only block: permission-only upgrade.
        FetchResult res = d.proto.fetch(now, nodeId, block,
                                        ReqType::Upgrade);
        d.stats.invalidationsSent +=
            static_cast<std::uint64_t>(res.invalidations);
        d.stats.markSharedWrite(page);
        pc.setTag(page, idx, FineTag::ReadWrite);
        pc.recordMiss(page);
        return {res.done, ServiceKind::Remote, CacheState::Modified};
    }

    // Invalid tag: the RAD inhibits memory, translates the local
    // physical address to the global one, and fetches from the home.
    FetchResult res = d.proto.fetch(now, nodeId, block,
                                    write ? ReqType::GetX : ReqType::GetS);
    pc.setTag(page, idx,
              write ? FineTag::ReadWrite : FineTag::ReadOnly);
    pc.recordMiss(page);
    d.stats.recordFetch(page, res.kind, write, true);
    d.stats.invalidationsSent +=
        static_cast<std::uint64_t>(res.invalidations);
    if (res.threeHop)
        d.stats.forwards++;

    Tick done = d.bus.acquire(res.done) + p.busLatency;
    return {done, ServiceKind::Remote,
            write ? CacheState::Modified : CacheState::Shared};
}

RadAccess
RNumaRad::access(Tick now, Addr addr, bool write, bool upgrade)
{
    (void)upgrade; // permission requests resolve via the same paths
    Addr page = pageOf(addr);
    PageMode mode = d.pageTable.modeOf(page);

    Tick t = now;
    if (mode == PageMode::Unmapped) {
        // First touch by any processor on this node. S-COMA faults
        // the page into the page cache (Figure 3b); CC-NUMA and the
        // hybrid take a soft fault mapping it to its CC-NUMA global
        // physical address (Figures 2b, 4b).
        mode = firstTouch;
        if (mode == PageMode::SComa) {
            t = allocate(t, page);
        } else {
            t = d.vm.chargeMapFault(t);
            d.pageTable.set(page, PageMode::CCNuma);
        }
    }

    if (mode == PageMode::SComa)
        return pagePath(t, addr, write);
    return blockPath(t, addr, write);
}

bool
RNumaRad::invalidateBlock(Addr block)
{
    block = blockOf(block);
    bool dirty = bc.invalidate(block) == CacheState::Modified;
    Addr page = pageOf(block);
    if (pc.contains(page)) {
        std::size_t idx = blockIndex(block);
        if (pc.tag(page, idx) == FineTag::ReadWrite)
            dirty = true;
        pc.setTag(page, idx, FineTag::Invalid);
    }
    return dirty;
}

void
RNumaRad::downgradeBlock(Addr block)
{
    block = blockOf(block);
    bc.downgrade(block);
    Addr page = pageOf(block);
    if (pc.contains(page)) {
        std::size_t idx = blockIndex(block);
        if (pc.tag(page, idx) == FineTag::ReadWrite)
            pc.setTag(page, idx, FineTag::ReadOnly);
    }
}

void
RNumaRad::l1Writeback(Tick now, Addr block)
{
    block = blockOf(block);
    Addr page = pageOf(block);
    if (pc.contains(page)) {
        // The page cache is main memory; the dirty line lands in the
        // frame and the tag stays/becomes read-write.
        pc.setTag(page, blockIndex(block), FineTag::ReadWrite);
        return;
    }
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
RNumaRad::hasWritePermission(Addr block) const
{
    block = blockOf(block);
    if (bc.ownsBlock(block))
        return true;
    Addr page = pageOf(block);
    return pc.contains(page) &&
        pc.tag(page, blockIndex(block)) == FineTag::ReadWrite;
}

} // namespace rnuma
