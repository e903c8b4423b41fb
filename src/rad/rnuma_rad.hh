/**
 * @file
 * The Remote Access Device (Section 3, Figure 4): the union of the
 * CC-NUMA block cache and the S-COMA page cache, parameterized by a
 * pluggable RelocationPolicy. Remote pages start CC-NUMA; when the
 * policy fires on a page's refetch stream, the RAD interrupts the
 * OS, which relocates the page into the page cache. Pages evicted
 * from the page cache revert to CC-NUMA on their next touch (the
 * policy is told, so stateful policies can react). With the paper's
 * StaticThresholdPolicy this is exactly R-NUMA; other policies give
 * new hybrid systems on the same hardware.
 *
 * CC-NUMA and S-COMA are this device with one structure switched
 * off (ccNuma(), sComa()): CC-NUMA has no page cache and no policy,
 * so its pages never relocate; S-COMA has no block cache to speak
 * of, and the OS allocates every remote page a page-cache frame at
 * its first touch.
 */

#ifndef RNUMA_RAD_RNUMA_RAD_HH
#define RNUMA_RAD_RNUMA_RAD_HH

#include <memory>

#include "core/relocation_policy.hh"
#include "rad/block_cache.hh"
#include "rad/page_cache.hh"
#include "rad/rad.hh"

namespace rnuma
{

/** Block cache + page cache + an optional relocation policy. */
class RNumaRad : public Rad
{
  public:
    /**
     * The hybrid: a Params::rnumaBlockCacheSize block cache, the
     * page cache, and @p policy deciding relocations.
     */
    RNumaRad(const Params &params, NodeId node, RadDeps deps,
             std::unique_ptr<RelocationPolicy> policy);

    /**
     * CC-NUMA (Section 2.1, Figure 2): a Params::blockCacheSize block
     * cache (unbounded under Params::infiniteBlockCache), no
     * page-cache frames, and no policy.
     */
    static std::unique_ptr<RNumaRad> ccNuma(const Params &params,
                                            NodeId node, RadDeps deps);

    /**
     * S-COMA (Section 2.2, Figure 3): the page cache; a remote page's
     * first touch allocates it a frame. The device's block cache
     * shrinks to one set, which no access ever fills.
     */
    static std::unique_ptr<RNumaRad> sComa(const Params &params,
                                           NodeId node, RadDeps deps);

    RadAccess access(Tick now, Addr addr, bool write,
                     bool upgrade) override;
    bool invalidateBlock(Addr block) override;
    void downgradeBlock(Addr block) override;
    void l1Writeback(Tick now, Addr block) override;
    bool hasWritePermission(Addr block) const override;

    /** Test introspection. */
    const BlockCache &blockCache() const { return bc; }
    const PageCache &pageCache() const { return pc; }
    /** Null for CC-NUMA and S-COMA. */
    const RelocationPolicy *policy() const { return policy_.get(); }

  private:
    RNumaRad(const Params &params, NodeId node, RadDeps deps,
             BlockCache blocks, std::size_t frames,
             PageMode first_touch,
             std::unique_ptr<RelocationPolicy> policy);

    BlockCache bc;
    PageCache pc;
    /** The mode the OS maps a remote page in at its first touch. */
    PageMode firstTouch;
    std::unique_ptr<RelocationPolicy> policy_;

    /** CC-NUMA-mode path through the block cache. */
    RadAccess blockPath(Tick now, Addr addr, bool write);

    /** S-COMA-mode path through the page cache. */
    RadAccess pagePath(Tick now, Addr addr, bool write);

    /**
     * S-COMA page fault (Figure 3b): allocate @p page a frame,
     * replacing the LRM victim if none is free, and map it.
     * Returns the resume tick.
     */
    Tick allocate(Tick now, Addr page);

    /**
     * Relocate a page from CC-NUMA to S-COMA (Section 3.1): trap,
     * flush the page's blocks from the L1s and block cache into a
     * freshly allocated frame (replacing the LRM victim if needed),
     * remap, and reset the counter. Returns the resume tick.
     */
    Tick relocate(Tick now, Addr page);

    /** A page replaced from the page cache. */
    struct Eviction
    {
        Addr page;
        std::size_t flushed; ///< blocks flushed home
        std::uint64_t hits;  ///< page-cache hits while resident
    };

    /**
     * Free a frame by replacing the least-recently-missed page: flush
     * its valid blocks home (notifying), drop its frame and its
     * mapping. The page faults afresh on its next touch.
     */
    Eviction evictLrm(Tick now);
};

} // namespace rnuma

#endif // RNUMA_RAD_RNUMA_RAD_HH
