/**
 * @file
 * The CC-NUMA block cache: a direct-mapped, write-back SRAM cache on
 * the RAD holding only remote blocks (Section 2.1). Inclusion with
 * the processor caches is maintained for read-write blocks but not
 * read-only blocks (Section 4).
 */

#ifndef RNUMA_RAD_BLOCK_CACHE_HH
#define RNUMA_RAD_BLOCK_CACHE_HH

#include "common/params.hh"
#include "common/types.hh"
#include "mem/cache.hh"

namespace rnuma
{

/**
 * Thin wrapper around Cache specializing states to the node-level
 * view: Shared = read-only copy, Modified = read-write (dirty,
 * node is the global owner).
 */
class BlockCache
{
  public:
    /**
     * @param size_bytes capacity (32 KB for CC-NUMA, 128 B for
     *                   R-NUMA in the base system)
     * @param params     geometry source
     * @param infinite   unbounded (the normalization baseline)
     */
    BlockCache(std::size_t size_bytes, const Params &params,
               bool infinite);

    /** Probe (updates nothing). */
    CacheLine *find(Addr a) { return cache.find(a); }
    const CacheLine *find(Addr a) const { return cache.find(a); }

    /** LRU touch. */
    void touch(CacheLine *line) { cache.touch(line); }

    /** Allocate a frame; the victim (if any) is returned. */
    CacheLine *
    allocate(Addr a, Cache::Victim &victim)
    {
        return cache.allocate(a, victim);
    }

    /** Invalidate; returns prior state. */
    CacheState invalidate(Addr a) { return cache.invalidate(a); }

    /** Downgrade Modified -> Shared (data went home). */
    void downgrade(Addr a) { cache.downgrade(a); }

    /** Node holds the block writable. */
    bool
    ownsBlock(Addr a) const
    {
        const CacheLine *line = cache.find(a);
        return line && line->state == CacheState::Modified;
    }

    std::size_t validCount() const { return cache.validCount(); }
    bool infinite() const { return cache.infinite(); }

  private:
    Cache cache;
};

} // namespace rnuma

#endif // RNUMA_RAD_BLOCK_CACHE_HH
