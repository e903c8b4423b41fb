/**
 * @file
 * A generic set-associative, write-back cache model with MOESI line
 * states. Instantiated as the per-processor L1 data caches and (via
 * rad/BlockCache) as the RAD's remote block cache. Supports an
 * "infinite" mode used for the Figure 6 normalization baseline.
 */

#ifndef RNUMA_MEM_CACHE_HH
#define RNUMA_MEM_CACHE_HH

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace rnuma
{

/**
 * MOESI line states (the node-internal snoopy protocol is modeled
 * after the Sparc MBus protocol, per Section 4 of the paper).
 */
enum class CacheState : std::uint8_t
{
    Invalid,
    Shared,    ///< clean, possibly other copies
    Exclusive, ///< clean, sole copy
    Owned,     ///< dirty, responsible for supplying; other copies exist
    Modified   ///< dirty, sole copy
};

/** True for states that hold dirty data (Owned or Modified). */
bool isDirty(CacheState s);

/** True for any valid state. */
bool isValid(CacheState s);

/** One cache line: block address, coherence state, LRU stamp. */
struct CacheLine
{
    Addr addr = invalidAddr;
    CacheState state = CacheState::Invalid;
    std::uint64_t lru = 0;

    bool valid() const { return state != CacheState::Invalid; }
};

/**
 * The cache proper. All addresses passed in are rounded down to block
 * boundaries internally, so callers may pass raw addresses.
 */
class Cache
{
  public:
    /**
     * @param size_bytes  total capacity (ignored when infinite)
     * @param block_bytes coherence block size
     * @param assoc       ways per set (1 = direct-mapped)
     * @param infinite    unbounded capacity, no evictions ever
     */
    Cache(std::size_t size_bytes, std::size_t block_bytes,
          std::size_t assoc, bool infinite = false);

    /** Block-align an address. */
    Addr blockAlign(Addr a) const { return a & ~(blockBytes - 1); }

    /**
     * Probe for a block. Returns the line (without updating LRU) or
     * nullptr on miss.
     */
    CacheLine *find(Addr a);
    const CacheLine *find(Addr a) const;

    /** Mark a line most-recently used. */
    void touch(CacheLine *line);

    /** Description of a line evicted by allocate(). */
    struct Victim
    {
        bool valid = false;
        Addr addr = invalidAddr;
        CacheState state = CacheState::Invalid;
    };

    /**
     * Allocate a line for a block (which must not currently be
     * present), evicting the LRU way if the set is full. The caller
     * must handle any writeback implied by the victim's dirty state.
     * The returned line is valid with state Invalid; the caller sets
     * the state.
     */
    CacheLine *allocate(Addr a, Victim &victim);

    /**
     * Invalidate a block if present; returns its prior state
     * (Invalid when absent).
     */
    CacheState invalidate(Addr a);

    /** Downgrade a block to Shared if present (snoop read). */
    void downgrade(Addr a);

    /** Visit every valid line (test/diagnostic use). */
    void forEachValid(
        const std::function<void(const CacheLine &)> &fn) const;

    /** Number of currently valid lines. */
    std::size_t validCount() const;

    std::size_t numSets() const { return sets; }
    std::size_t associativity() const { return assoc; }
    std::size_t blockSize() const { return blockBytes; }
    bool infinite() const { return unbounded; }

  private:
    std::size_t blockBytes;
    std::size_t assoc;
    std::size_t sets;
    bool unbounded;
    /**
     * find() runs tens of millions of times per figure (every L1
     * probe, snoop, and invalidation lands here), so the set index
     * is computed with a shift and mask instead of the division and
     * modulo the naive form needs. blockShift always applies (block
     * sizes are asserted powers of two); setMask applies when the
     * set count is also a power of two — true for every configured
     * cache in the paper's sweeps — with a modulo fallback for
     * exotic geometries.
     */
    unsigned blockShift = 0;
    std::size_t setMask = 0;
    bool setsArePow2 = false;
    std::uint64_t lruClock = 0;

    /** Set-indexed storage (finite mode): sets * assoc lines. */
    std::vector<CacheLine> lines;
    /** Map storage (infinite mode). */
    std::unordered_map<Addr, CacheLine> map;

    std::size_t setIndex(Addr a) const;
};

// The L1 probe runs for every simulated reference, so the lookup
// path is defined here for the compiler to inline into Node::tryHit
// and Machine::step.

inline std::size_t
Cache::setIndex(Addr a) const
{
    const Addr block = a >> blockShift;
    if (setsArePow2)
        return static_cast<std::size_t>(block) & setMask;
    return static_cast<std::size_t>(block % sets);
}

inline CacheLine *
Cache::find(Addr a)
{
    a = blockAlign(a);
    if (unbounded) {
        auto it = map.find(a);
        return it == map.end() ? nullptr : &it->second;
    }
    std::size_t base = setIndex(a) * assoc;
    for (std::size_t w = 0; w < assoc; ++w) {
        CacheLine &line = lines[base + w];
        // Tag compare first: it almost always fails, and is cheaper
        // than the state load on lines that do not match.
        if (line.addr == a && line.valid())
            return &line;
    }
    return nullptr;
}

inline const CacheLine *
Cache::find(Addr a) const
{
    return const_cast<Cache *>(this)->find(a);
}

inline void
Cache::touch(CacheLine *line)
{
    line->lru = ++lruClock;
}

} // namespace rnuma

#endif // RNUMA_MEM_CACHE_HH
