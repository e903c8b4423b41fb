/**
 * @file
 * System parameters reproducing Table 2 and Section 4 of Falsafi &
 * Wood, "Reactive NUMA" (ISCA 1997). All costs are in 400 MHz
 * processor cycles.
 */

#ifndef RNUMA_COMMON_PARAMS_HH
#define RNUMA_COMMON_PARAMS_HH

#include <cstddef>
#include <string>

#include "common/types.hh"

namespace rnuma
{

/**
 * Machine geometry and timing parameters.
 *
 * The base configuration models the paper's simulated machine: eight
 * 4-way SMP nodes of 400 MHz dual-issue processors, a 100 MHz
 * split-transaction bus, a constant-latency point-to-point network
 * with contention at the network interfaces, 8 KB direct-mapped
 * processor data caches, a 32 KB CC-NUMA block cache, a 320 KB
 * S-COMA page cache, and an R-NUMA with a 128-byte block cache plus
 * the same 320 KB page cache and relocation threshold 64.
 */
struct Params
{
    //--- Geometry -------------------------------------------------------
    /** Number of SMP nodes in the machine. */
    std::size_t numNodes = 8;
    /** Processors per SMP node. */
    std::size_t cpusPerNode = 4;
    /** Coherence block (cache line) size in bytes. */
    std::size_t blockSize = 32;
    /** Virtual-memory page size in bytes. */
    std::size_t pageSize = 4096;
    /** Per-processor L1 data cache size in bytes (direct-mapped). */
    std::size_t l1Size = 8 * 1024;
    /** L1 associativity (the paper's caches are direct-mapped). */
    std::size_t l1Assoc = 1;

    //--- Remote caches (per protocol) -----------------------------------
    /** CC-NUMA / R-NUMA block cache size in bytes (0 = absent). */
    std::size_t blockCacheSize = 32 * 1024;
    /** Block cache associativity (direct-mapped SRAM in the paper). */
    std::size_t blockCacheAssoc = 1;
    /** Model an unbounded block cache (the Figure 6 baseline). */
    bool infiniteBlockCache = false;
    /**
     * R-NUMA block cache size in bytes. The base system pairs a much
     * smaller 128-byte block cache with the 320 KB page cache
     * (Section 4).
     */
    std::size_t rnumaBlockCacheSize = 128;
    /** S-COMA / R-NUMA page cache size in bytes. */
    std::size_t pageCacheSize = 320 * 1024;
    /** R-NUMA relocation threshold T (refetches before relocation). */
    std::size_t relocationThreshold = 64;
    /**
     * Ablation switch: keep the directory's prior-owner state
     * (Section 3.1's extra state for detecting refetches of
     * read-write blocks after voluntary writebacks). With it off,
     * only silent read-only evictions are detected as refetches, and
     * R-NUMA under-counts reuse on write-heavy pages.
     */
    bool priorOwnerState = true;

    //--- Interconnect model (net/registry.hh) ----------------------------
    /**
     * Registered network model id: "constant" (the paper's fixed
     * point-to-point latency, the default), "mesh-2d"
     * (dimension-ordered routing with per-hop link contention), or
     * "fat-tree" (log-distance hop latency, contention-free links).
     */
    std::string networkModel = "constant";
    /** Per-hop wire latency for topology models (mesh-2d, fat-tree). */
    Tick hopLatency = 25;
    /** Per-message occupancy of one mesh link (contention unit). */
    Tick linkOccupancy = 4;

    //--- Directory sharer-set format (proto/directory.hh) ----------------
    /** Sharer-set representation for directory entries. */
    SharerFormat dirFormat = SharerFormat::FullMap;
    /** Exact pointers per entry for SharerFormat::LimitedPointer. */
    std::size_t dirPointers = 4;
    /** Nodes per region bit for SharerFormat::CoarseVector. */
    std::size_t dirRegionSize = 8;

    //--- Block operation costs (Table 2) --------------------------------
    /** SRAM access: block cache, fine-grain tags, translation table. */
    Tick sramAccess = 8;
    /** DRAM access: main memory / page cache. */
    Tick dramAccess = 56;
    /** Memory-bus request portion of a local fill (69 - 56). */
    Tick busLatency = 13;
    /** Bus occupancy per transaction (split-transaction, 100 MHz). */
    Tick busOccupancy = 16;
    /** RAD protocol-controller occupancy per traversal. */
    Tick radOccupancy = 23;
    /** Network-interface occupancy per message. */
    Tick niOccupancy = 20;
    /** Point-to-point network latency (constant, per hop). */
    Tick netLatency = 100;
    /** Directory lookup at the home node. */
    Tick dirAccess = 8;

    //--- Page operation costs (Table 2 / Figure 9) -----------------------
    /** Soft trap: page fault or relocation interrupt (5 us base). */
    Tick softTrap = 2000;
    /** TLB shootdown on the local node (0.5 us hardware base). */
    Tick tlbShootdown = 200;
    /**
     * Fixed part of page allocation/replacement beyond the trap and
     * shootdown (page-table, translation-table and tag setup). Chosen
     * so an empty page costs ~3000 cycles and a full 128-block page
     * ~11500 cycles, the Table 2 range.
     */
    Tick pageSetup = 800;
    /** Per-valid-block cost of flushing/moving a block on a page op. */
    Tick blockFlush = 66;
    /** Barrier synchronization release overhead. */
    Tick barrierCost = 100;

    //--- Derived quantities ----------------------------------------------
    /** Coherence blocks per page. */
    std::size_t blocksPerPage() const { return pageSize / blockSize; }
    /** Total processors in the machine. */
    std::size_t numCpus() const { return numNodes * cpusPerNode; }
    /** Page frames in the S-COMA page cache. */
    std::size_t pageCacheFrames() const { return pageCacheSize / pageSize; }
    /** Block frames in the block cache. */
    std::size_t blockCacheBlocks() const
    {
        return blockCacheSize / blockSize;
    }

    /** Uncontended local cache fill latency (Table 2: 69 cycles). */
    Tick localFill() const { return busLatency + dramAccess; }

    /**
     * Uncontended two-hop remote fetch latency given a one-way wire
     * latency: bus + RAD out + NI + wire + (directory + memory) +
     * NI + wire + RAD in + bus. The wire term comes from the network
     * model (NetworkModel::meanLatency(), or latency(from, to) for a
     * specific pair); passing netLatency reproduces Table 2's 376
     * cycles for the constant model.
     */
    Tick
    remoteFetch(Tick wire) const
    {
        return busLatency + radOccupancy + niOccupancy + wire +
            dirAccess + dramAccess + niOccupancy + wire +
            radOccupancy + busLatency;
    }

    /**
     * The constant-model remote fetch latency (Table 2: 376 cycles).
     * Call remoteFetchLatency(params) (net/registry.hh) for the
     * model-derived figure under a non-constant interconnect.
     */
    Tick remoteFetch() const { return remoteFetch(netLatency); }

    /**
     * Stable directory-format id for artifacts and the compare gate:
     * "full-map", "limited-pointer-<i>", or "coarse-vector-<r>".
     */
    std::string directoryId() const;

    /** Block cache hit latency: bus + SRAM + bus transfer. */
    Tick blockCacheHit() const { return busLatency + sramAccess +
        busLatency; }

    /** Page cache (fine-grain tag) hit latency: tags + DRAM fill. */
    Tick pageCacheHit() const { return sramAccess + localFill(); }

    /**
     * Page allocation/replacement or relocation cost given the number
     * of valid blocks that must be flushed or moved (Table 2 quotes
     * 3000-11500 cycles depending on the number of blocks flushed).
     */
    Tick
    pageOpCost(std::size_t valid_blocks) const
    {
        return softTrap + tlbShootdown + pageSetup +
            blockFlush * static_cast<Tick>(valid_blocks);
    }

    /**
     * Stable hash over every field. The sweep driver's
     * content-addressed workload cache keys generated workloads by
     * (fingerprint, app, scale, seed); any parameter change — even to
     * fields a given generator ignores — yields a fresh key, so the
     * cache can never serve a stale stream.
     */
    std::uint64_t fingerprint() const;

    //--- Factories --------------------------------------------------------
    /** The paper's base system (Section 4). */
    static Params base();

    /**
     * The Figure 9 "SOFT" system: 10 us page faults and 5 us software
     * TLB invalidation via inter-processor interrupts, tripling the
     * per-page overheads.
     */
    static Params soft();

    /** Panic if the configuration is internally inconsistent. */
    void validate() const;
};

} // namespace rnuma

#endif // RNUMA_COMMON_PARAMS_HH
