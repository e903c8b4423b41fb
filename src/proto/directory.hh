/**
 * @file
 * Directory state for the DSM coherence protocol. Every cache block
 * has an entry at its home node tracking sharers, the exclusive
 * owner, and the extra "prior owner" state the paper adds so the
 * directory can detect refetches of read-write blocks that were
 * voluntarily written back (Section 3.1).
 *
 * The sharer-tracking format is selected by Params::dirFormat: the
 * paper's exact full-map bit vector, a limited-pointer Dir_iB that
 * keeps up to i exact node ids and degrades to broadcast on overflow,
 * or a coarse vector with one bit per r-node region — the standard
 * post-ISCA-97 scaling fixes that make directory memory O(sharers)
 * instead of O(nodes). All three share one simulator representation,
 * an exact bit vector over *slots* (a node, or a coarse region) plus
 * an overflow bit, so no operation dispatches on the format.
 */

#ifndef RNUMA_PROTO_DIRECTORY_HH
#define RNUMA_PROTO_DIRECTORY_HH

#include <algorithm>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "common/params.hh"
#include "common/types.hh"

namespace rnuma
{

/** Directory sizing/format configuration, derived from Params. */
struct DirConfig
{
    SharerFormat format = SharerFormat::FullMap;
    /** Nodes the machine actually has (bounds broadcast costs). */
    std::size_t nodes = maxNodes;
    /** Exact pointers per entry (LimitedPointer). */
    std::size_t pointers = 4;
    /** Nodes per region bit (CoarseVector). */
    std::size_t regionSize = 8;

    static DirConfig
    fromParams(const Params &p)
    {
        DirConfig c;
        c.format = p.dirFormat;
        c.nodes = p.numNodes;
        c.pointers = p.dirPointers;
        c.regionSize = p.dirRegionSize;
        return c;
    }

    /** ceil(log2(n)), with ceilLog2(0/1) == 0. */
    static std::size_t
    ceilLog2(std::size_t n)
    {
        std::size_t bits = 0;
        while ((std::size_t{1} << bits) < n)
            ++bits;
        return bits;
    }

    /**
     * Modeled hardware bits per directory entry: the two sharer sets
     * (sharers + prior) in the configured format plus the owner
     * field. Full-map costs 2 bits per node; limited-pointer costs
     * i exact pointers plus an overflow bit per set; coarse-vector
     * one bit per region. (The `touched` set is simulator
     * classification state, not modeled hardware, and is excluded.)
     */
    std::size_t
    entryBits() const
    {
        const std::size_t owner_bits = ceilLog2(nodes) + 1;
        switch (format) {
          case SharerFormat::FullMap:
            return 2 * nodes + owner_bits;
          case SharerFormat::LimitedPointer:
            return 2 * (pointers * ceilLog2(nodes) + 1) + owner_bits;
          case SharerFormat::CoarseVector:
            return 2 * ((nodes + regionSize - 1) / regionSize) +
                owner_bits;
        }
        return 0;
    }
};

/**
 * How one set maps nodes onto its slot vector. Built once per
 * Directory; every view of a set of that shape points at it.
 */
struct SlotShape
{
    /** Nodes the machine has (count() of a broadcast set). */
    std::uint32_t nodes = 0;
    /** Nodes per slot: the coarse-vector region size, else 1. */
    std::uint32_t regionSize = 1;
    /** Distinct slots before the set overflows; 0 means no cap. */
    std::uint32_t limit = 0;
    /** 64-bit words of slot bits. */
    std::uint32_t words = 0;
    /** Whether reset(n) can clear a single slot (not coarse). */
    bool exactRemove = true;

    static SlotShape
    of(const DirConfig &cfg)
    {
        SlotShape s;
        s.nodes = static_cast<std::uint32_t>(cfg.nodes);
        s.exactRemove = cfg.format != SharerFormat::CoarseVector;
        if (!s.exactRemove)
            s.regionSize = static_cast<std::uint32_t>(cfg.regionSize);
        if (cfg.format == SharerFormat::LimitedPointer)
            s.limit = static_cast<std::uint32_t>(cfg.pointers);
        s.words = ((s.nodes + s.regionSize - 1) / s.regionSize + 63) / 64;
        return s;
    }
};

/**
 * View of one set of node ids stored in a Directory entry. Full-map
 * is exact; limited-pointer and coarse-vector are conservative
 * over-approximations: test() may report a node that was never
 * set(), but a node that was set() and not individually reset() is
 * always reported. Degradation rules:
 *
 *  - LimitedPointer: up to `pointers` exact ids; one more distinct
 *    set() clears the slots and flips the entry to broadcast (test()
 *    true for every node, count() == nodes). reset(n) of one node
 *    cannot un-broadcast; only a full reset() (protocol-wide
 *    invalidation/flush) clears the overflow.
 *  - CoarseVector: one slot per region of `regionSize` nodes;
 *    reset(n) is a no-op because other sharers may map to the same
 *    region bit.
 *
 * @tparam Word std::uint64_t for a mutable view, const std::uint64_t
 *         for a read-only one (mutators then fail to compile).
 */
template <typename Word>
class BasicSharerSet
{
  public:
    BasicSharerSet() = default;

    BasicSharerSet(const SlotShape *shape, Word *meta, Word *bits,
                   std::uint64_t overflow_bit)
        : shape_(shape), meta_(meta), bits_(bits), ovf_(overflow_bit)
    {
    }

    void
    set(NodeId n)
    {
        const std::uint32_t s = slotOf(n);
        std::uint64_t &w = bits_[s / 64];
        const std::uint64_t bit = std::uint64_t{1} << (s % 64);
        if (overflowed() || (w & bit))
            return;
        if (shape_->limit != 0 && slotCount() >= shape_->limit) {
            // Dir_iB: the i+1'th distinct sharer flips the entry to
            // broadcast.
            std::fill_n(bits_, shape_->words, 0);
            *meta_ |= ovf_;
            return;
        }
        w |= bit;
    }

    /** Remove one node, where the representation can express that. */
    void
    reset(NodeId n)
    {
        if (!shape_->exactRemove || overflowed())
            return; // exactRemove implies one node per slot
        bits_[n / 64] &= ~(std::uint64_t{1} << (n % 64));
    }

    /** Clear the whole set (always exact, in every format). */
    void
    reset()
    {
        std::fill_n(bits_, shape_->words, 0);
        *meta_ &= ~ovf_;
    }

    bool
    test(NodeId n) const
    {
        const std::uint32_t s = slotOf(n);
        return overflowed() || ((bits_[s / 64] >> (s % 64)) & 1);
    }

    bool none() const { return !overflowed() && slotCount() == 0; }

    /**
     * Whether the set would be none() after reset(n): no node other
     * than @p n is (apparently) in it.
     */
    bool
    noneExcept(NodeId n) const
    {
        if (overflowed())
            return false;
        const std::uint64_t drop =
            shape_->exactRemove ? std::uint64_t{1} << (n % 64) : 0;
        for (std::uint32_t i = 0; i < shape_->words; ++i)
            if (bits_[i] & ~(i == n / 64 ? drop : 0))
                return false;
        return true;
    }

    /**
     * Apparent sharer count: nodes for a broadcast set, region
     * population times region size (clamped to nodes) for coarse.
     */
    std::size_t
    count() const
    {
        if (overflowed())
            return shape_->nodes;
        return std::min<std::size_t>(
            std::size_t{slotCount()} * shape_->regionSize, shape_->nodes);
    }

    /**
     * Conservative containment test for the parallel engine: true
     * only when every node test() could report lies in [lo, hi) (a
     * broadcast set fits only the whole machine).
     */
    bool
    withinRange(NodeId lo, NodeId hi) const
    {
        if (overflowed())
            return lo == 0 && hi >= shape_->nodes;
        for (std::uint32_t i = 0; i < shape_->words; ++i) {
            for (std::uint64_t w = bits_[i]; w; w &= w - 1) {
                const std::uint64_t first = shape_->regionSize *
                    (i * 64 + static_cast<unsigned>(__builtin_ctzll(w)));
                const std::uint64_t last = std::min<std::uint64_t>(
                    first + shape_->regionSize, shape_->nodes);
                if (first < lo || last > hi)
                    return false;
            }
        }
        return true;
    }

    /** A limited-pointer entry that has degraded to broadcast. */
    bool overflowed() const { return (*meta_ & ovf_) != 0; }

  private:
    std::uint32_t
    slotOf(NodeId n) const
    {
        return shape_->regionSize == 1 ? n : n / shape_->regionSize;
    }

    std::uint32_t
    slotCount() const
    {
        std::uint32_t c = 0;
        for (std::uint32_t i = 0; i < shape_->words; ++i)
            c += static_cast<std::uint32_t>(__builtin_popcountll(bits_[i]));
        return c;
    }

    const SlotShape *shape_ = nullptr;
    Word *meta_ = nullptr;
    Word *bits_ = nullptr;
    std::uint64_t ovf_ = 0;
};

using SharerSet = BasicSharerSet<std::uint64_t>;

/**
 * Directory entry for one coherence block: a view into the owning
 * Directory's arena (see Directory for its lifetime). Its words
 * are a meta word (owner + 1 in the low 32 bits so zero means "no
 * owner", a live bit, the sharers and prior overflow bits), then the
 * sharers slots, the prior slots and the touched node bits.
 */
template <typename Word>
class BasicDirEntry
{
  public:
    static constexpr std::uint64_t ownerMask = 0xffffffffu;
    static constexpr std::uint64_t liveBit = std::uint64_t{1} << 32;
    static constexpr std::uint64_t sharersOvf = std::uint64_t{1} << 33;
    static constexpr std::uint64_t priorOvf = std::uint64_t{1} << 34;

    /** A null view (peek() of a block without directory state). */
    BasicDirEntry() = default;

    BasicDirEntry(const SlotShape *shape, const SlotShape *node_shape,
                  Word *meta)
        : sharers(shape, meta, meta + 1, sharersOvf),
          prior(shape, meta, meta + 1 + shape->words, priorOvf),
          touched(node_shape, meta, meta + 1 + 2 * shape->words, 0),
          meta_(meta)
    {
    }

    explicit operator bool() const { return meta_ != nullptr; }

    /**
     * Nodes the directory believes hold a copy. Read-only copies are
     * evicted silently (non-notifying protocol), so a bit may be
     * stale — which is precisely how read refetches are detected: a
     * request from a node whose bit is still set means the node lost
     * its copy to capacity or conflict, not coherence.
     */
    BasicSharerSet<Word> sharers;

    /**
     * Nodes that previously held the block exclusively and
     * voluntarily wrote it back (block-cache eviction). A request
     * from such a node is a refetch of a read-write block.
     */
    BasicSharerSet<Word> prior;

    /**
     * Nodes that have ever fetched the block (cold-miss detection).
     * Simulator classification state, always exact — not part of the
     * modeled hardware entry (DirConfig::entryBits()).
     */
    BasicSharerSet<Word> touched;

    /** Node holding the block exclusively (dirty), or invalidNode. */
    NodeId owner() const { return static_cast<NodeId>(*meta_) - 1u; }

    /** Set (or, with invalidNode, clear) the exclusive owner. */
    void
    setOwner(NodeId n)
    {
        *meta_ = (*meta_ & ~ownerMask) | static_cast<NodeId>(n + 1);
    }

    bool hasOwner() const { return (*meta_ & ownerMask) != 0; }

    /** Number of (apparent) sharers. */
    std::size_t sharerCount() const { return sharers.count(); }

  private:
    Word *meta_ = nullptr;
};

using DirEntry = BasicDirEntry<std::uint64_t>;
using ConstDirEntry = BasicDirEntry<const std::uint64_t>;

/**
 * The directory for the whole machine, keyed by block address. In
 * hardware each home node holds the slice for its own pages; a single
 * store is behaviorally identical and simpler.
 *
 * Storage is a page-grouped arena: the first touch of any block on a
 * page allocates one zero-filled word array holding that page's
 * `blocks_per_page` entries of entryWords() each (sized to the
 * machine: 32 B in every format on up to 64 nodes), so consecutive
 * blocks of a page land in adjacent memory. A one-entry memo of the
 * last group resolved makes same-page runs of lookups skip the hash.
 * Groups never move and are never erased, so entry views stay valid
 * while the Directory lives at one address (the protocol holds a
 * DirEntry across callbacks that may create other entries).
 * Block addresses passed in must be block-aligned.
 */
class Directory
{
  public:
    /**
     * @param block_bytes     coherence block size (power of two)
     * @param blocks_per_page grouping factor, rounded down to a power
     *        of two (the default 1 is a plain per-block map)
     * @param cfg             sharer format; default the paper's full map
     */
    explicit Directory(std::size_t block_bytes = 1,
                       std::size_t blocks_per_page = 1,
                       DirConfig cfg = {})
        : cfg_(cfg), shape_(SlotShape::of(cfg)),
          nodeShape_(SlotShape::of({SharerFormat::FullMap, cfg.nodes})),
          entryWords_(1 + 2 * std::size_t{shape_.words} +
                      nodeShape_.words)
    {
        while ((std::size_t{1} << (blockShift_ + 1)) <= block_bytes)
            ++blockShift_;
        while ((std::size_t{2} << groupShift_) <= blocks_per_page)
            ++groupShift_;
        idxMask_ = (std::size_t{1} << groupShift_) - 1;
    }

    /** Find-or-create the entry for a block address. */
    DirEntry
    entry(Addr block)
    {
        std::uint64_t *meta = locate(block, true);
        if (!(*meta & DirEntry::liveBit)) {
            *meta |= DirEntry::liveBit;
            ++liveCount_;
        }
        return DirEntry(&shape_, &nodeShape_, meta);
    }

    /** Read-only probe; a null view when the block was never touched. */
    ConstDirEntry
    peek(Addr block) const
    {
        const std::uint64_t *meta =
            const_cast<Directory *>(this)->locate(block, false);
        if (!meta || !(*meta & DirEntry::liveBit))
            return {};
        return ConstDirEntry(&shape_, &nodeShape_, meta);
    }

    /** Call @p f(block, ConstDirEntry) for every live entry. */
    template <typename F>
    void
    forEachLive(F &&f) const
    {
        for (const auto &[key, g] : groups_) {
            for (std::size_t i = 0; i <= idxMask_; ++i) {
                const std::uint64_t *meta = g.get() + i * entryWords_;
                if (*meta & DirEntry::liveBit)
                    f(((key << groupShift_) | i) << blockShift_,
                      ConstDirEntry(&shape_, &nodeShape_, meta));
            }
        }
    }

    /** Number of blocks with directory state. */
    std::size_t size() const { return liveCount_; }

    /** Arena words one entry occupies (simulator, not modeled, cost). */
    std::size_t entryWords() const { return entryWords_; }

    const DirConfig &config() const { return cfg_; }

    /**
     * Modeled directory storage: live entries times the per-entry
     * hardware cost of the configured format (the scaling figure's
     * O(sharers)-vs-O(nodes) number).
     */
    std::uint64_t
    modeledStorageBits() const
    {
        return static_cast<std::uint64_t>(liveCount_) *
            static_cast<std::uint64_t>(cfg_.entryBits());
    }

  private:
    /** Meta word of a block's entry; nullptr if its group is absent. */
    std::uint64_t *
    locate(Addr block, bool create)
    {
        const Addr bi = block >> blockShift_;
        const Addr key = bi >> groupShift_;
        if (!lastGroup_ || lastKey_ != key) {
            if (create) {
                auto &g = groups_[key];
                if (!g) // zero-filled: no owner, not live, empty sets
                    g = std::make_unique<std::uint64_t[]>(
                        (idxMask_ + 1) * entryWords_);
                lastGroup_ = g.get();
            } else {
                auto it = groups_.find(key);
                if (it == groups_.end())
                    return nullptr;
                lastGroup_ = it->second.get();
            }
            lastKey_ = key;
        }
        return lastGroup_ +
            (static_cast<std::size_t>(bi) & idxMask_) * entryWords_;
    }

    DirConfig cfg_;
    /** Slot layout of the sharers and prior sets. */
    SlotShape shape_;
    /** Exact per-node layout of the touched set. */
    SlotShape nodeShape_;
    std::size_t entryWords_;
    unsigned blockShift_ = 0;
    unsigned groupShift_ = 0;
    std::size_t idxMask_ = 0;
    std::unordered_map<Addr, std::unique_ptr<std::uint64_t[]>> groups_;
    std::size_t liveCount_ = 0;
    /** Memo of the last group resolved (groups are never erased). */
    mutable Addr lastKey_ = 0;
    mutable std::uint64_t *lastGroup_ = nullptr;
};

} // namespace rnuma

#endif // RNUMA_PROTO_DIRECTORY_HH
