/**
 * @file
 * Tests for the directory sharer-set formats (proto/directory.hh):
 * full-map exactness, limited-pointer Dir_iB broadcast-on-overflow,
 * coarse-vector region semantics, the over-approximation invariant
 * both sparse formats must uphold (a set node is always reported
 * until a full reset), a differential fuzz of the compact slot-vector
 * representation against the original per-format oracle
 * (sharer_set_oracle.hh), the per-entry storage model, and
 * machine-level bit-identity of limited-pointer against full-map when
 * the sharer count never exceeds the pointer budget.
 */

#include <gtest/gtest.h>

#include <random>

#include "proto/directory.hh"
#include "sim/runner.hh"
#include "workload/micro.hh"

#include "sharer_set_oracle.hh"
#include "test_util.hh"

namespace rnuma
{

namespace
{

DirConfig
cfgOf(SharerFormat fmt, std::size_t nodes, std::size_t ptrs = 4,
      std::size_t region = 8)
{
    DirConfig c;
    c.format = fmt;
    c.nodes = nodes;
    c.pointers = ptrs;
    c.regionSize = region;
    return c;
}

/** A one-entry directory, to exercise the sets of its entry. */
class OneEntry
{
  public:
    explicit OneEntry(const DirConfig &cfg) : dir_(1, 1, cfg) {}

    DirEntry entry() { return dir_.entry(0); }
    SharerSet sharers() { return entry().sharers; }

  private:
    Directory dir_;
};

} // namespace

TEST(SharerSet, LimitedPointerIsExactUnderCapacity)
{
    OneEntry lpe(cfgOf(SharerFormat::LimitedPointer, 32, 4));
    OneEntry fme(cfgOf(SharerFormat::FullMap, 32));
    SharerSet lp = lpe.sharers();
    SharerSet fm = fme.sharers();
    for (NodeId n : {3, 9, 17, 3}) { // re-set of 3 must not burn a ptr
        lp.set(n);
        fm.set(n);
    }
    for (NodeId n = 0; n < 32; ++n)
        EXPECT_EQ(lp.test(n), fm.test(n)) << "node " << int(n);
    EXPECT_EQ(lp.count(), 3u);
    EXPECT_FALSE(lp.overflowed());
    // Individual removal works while exact.
    lp.reset(9);
    fm.reset(9);
    for (NodeId n = 0; n < 32; ++n)
        EXPECT_EQ(lp.test(n), fm.test(n)) << "node " << int(n);
    // A fourth distinct sharer still fits the 4-pointer budget.
    lp.set(20);
    EXPECT_FALSE(lp.overflowed());
    EXPECT_EQ(lp.count(), 3u);
}

TEST(SharerSet, LimitedPointerOverflowBroadcasts)
{
    OneEntry e(cfgOf(SharerFormat::LimitedPointer, 16, 2));
    SharerSet lp = e.sharers();
    lp.set(1);
    lp.set(2);
    EXPECT_FALSE(lp.overflowed());
    lp.set(3); // third distinct sharer: Dir_2B degrades to broadcast
    EXPECT_TRUE(lp.overflowed());
    // Broadcast means every node appears shared...
    for (NodeId n = 0; n < 16; ++n)
        EXPECT_TRUE(lp.test(n));
    EXPECT_EQ(lp.count(), 16u);
    EXPECT_FALSE(lp.none());
    // ...individual removal cannot un-broadcast (the hardware no
    // longer knows who holds copies)...
    lp.reset(1);
    EXPECT_TRUE(lp.test(1));
    // ...but a full reset (invalidation of everyone) is exact.
    lp.reset();
    EXPECT_TRUE(lp.none());
    EXPECT_FALSE(lp.overflowed());
    EXPECT_FALSE(lp.test(1));
}

TEST(SharerSet, CoarseVectorTracksRegions)
{
    OneEntry e(cfgOf(SharerFormat::CoarseVector, 32, 4, 8));
    SharerSet cv = e.sharers();
    cv.set(9); // region 1 (nodes 8..15)
    // The whole region appears shared; other regions do not.
    for (NodeId n = 8; n < 16; ++n)
        EXPECT_TRUE(cv.test(n));
    EXPECT_FALSE(cv.test(7));
    EXPECT_FALSE(cv.test(16));
    EXPECT_EQ(cv.count(), 8u);
    // Individual removal is a no-op: node 12 may also be sharing.
    cv.reset(9);
    EXPECT_TRUE(cv.test(9));
    cv.reset();
    EXPECT_TRUE(cv.none());
}

TEST(SharerSet, SparseFormatsNeverMissATrueSharer)
{
    // The invariant invalidation correctness rests on: any node that
    // was set() and not individually reset() must test() true, in
    // every format, whatever the interleaving — over-approximation
    // is allowed, under-approximation is a coherence bug.
    std::mt19937 rng(7);
    for (SharerFormat fmt :
         {SharerFormat::LimitedPointer, SharerFormat::CoarseVector}) {
        OneEntry e(cfgOf(fmt, 64, 2, 4));
        SharerSet s = e.sharers();
        std::bitset<64> truth;
        for (int step = 0; step < 500; ++step) {
            NodeId n = static_cast<NodeId>(rng() % 64);
            if (rng() % 3 == 0) {
                s.reset(n);
                truth.reset(n);
            } else {
                s.set(n);
                truth.set(n);
            }
            for (NodeId m = 0; m < 64; ++m) {
                if (truth.test(m)) {
                    ASSERT_TRUE(s.test(m))
                        << "format " << int(fmt) << " lost node "
                        << int(m) << " at step " << step;
                }
            }
        }
    }
}

namespace
{

/** Compare one set against its oracle on every query. */
void
expectSameAs(const SharerSet &s, const test::OracleSharerSet &o,
             std::size_t nodes, std::mt19937 &rng, const char *what)
{
    ASSERT_EQ(s.none(), o.none()) << what;
    ASSERT_EQ(s.count(), o.count()) << what;
    ASSERT_EQ(s.overflowed(), o.overflowed()) << what;
    for (NodeId m = 0; m < nodes; ++m)
        ASSERT_EQ(s.test(m), o.test(m)) << what << " node " << m;
    for (int i = 0; i < 4; ++i) {
        const NodeId n = static_cast<NodeId>(rng() % nodes);
        test::OracleSharerSet without = o;
        without.reset(n);
        ASSERT_EQ(s.noneExcept(n), without.none())
            << what << " except " << n;
    }
}

} // namespace

TEST(SharerSet, SlotVectorMatchesTheOracleUnderRandomOps)
{
    // The compact representation must reproduce the per-format
    // oracle exactly, query for query, in every format and across
    // 64-bit word boundaries. The sharers and prior sets of one
    // entry (which share its meta word) and its exact touched set
    // are driven by independent streams, so an overflow bit leaking
    // between them shows up too. No figure runs coarse-vector, so
    // this is its only exact check.
    struct Format
    {
        SharerFormat fmt;
        std::size_t pointers;
        std::size_t region;
    };
    const Format formats[] = {
        {SharerFormat::FullMap, 4, 8},
        {SharerFormat::LimitedPointer, 1, 8},
        {SharerFormat::LimitedPointer, 2, 8},
        {SharerFormat::LimitedPointer, 4, 8},
        {SharerFormat::CoarseVector, 4, 1},
        {SharerFormat::CoarseVector, 4, 3},
        {SharerFormat::CoarseVector, 4, 8},
    };
    for (const Format &f : formats) {
        for (std::size_t nodes : {1, 8, 63, 64, 65, 128, 512}) {
            const DirConfig cfg =
                cfgOf(f.fmt, nodes, f.pointers, f.region);
            DirConfig exact_cfg = cfgOf(SharerFormat::FullMap, nodes);
            OneEntry one(cfg);
            DirEntry e = one.entry();
            test::OracleSharerSet sharers(cfg), prior(cfg);
            test::OracleSharerSet touched(exact_cfg);
            std::mt19937 rng(static_cast<unsigned>(
                nodes * 131 + f.pointers * 17 + f.region +
                static_cast<unsigned>(f.fmt)));
            // Half the operations hit a few hot nodes, so removals
            // find set bits and the pointer budget overflows.
            const auto pick = [&]() {
                const NodeId n = static_cast<NodeId>(rng() % nodes);
                return rng() % 2 ? n % 6 % nodes : n;
            };
            const auto step = [&](SharerSet s,
                                  test::OracleSharerSet &o) {
                const unsigned op = rng() % 100;
                if (op < 55) {
                    const NodeId n = pick();
                    s.set(n);
                    o.set(n);
                } else if (op < 96) {
                    const NodeId n = pick();
                    s.reset(n);
                    o.reset(n);
                } else {
                    s.reset();
                    o.reset();
                }
            };
            const std::string tag = std::to_string(int(f.fmt)) + "/" +
                std::to_string(f.pointers) + "/" +
                std::to_string(f.region) + " nodes " +
                std::to_string(nodes);
            for (int i = 0; i < 1000; ++i) {
                step(e.sharers, sharers);
                step(e.prior, prior);
                const NodeId t = pick();
                e.touched.set(t);
                touched.set(t);
                expectSameAs(e.sharers, sharers, nodes, rng,
                             ("sharers " + tag).c_str());
                expectSameAs(e.prior, prior, nodes, rng,
                             ("prior " + tag).c_str());
                expectSameAs(e.touched, touched, nodes, rng,
                             ("touched " + tag).c_str());
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

TEST(SharerSet, EntryBitsAreOrderSharersNotOrderNodes)
{
    // Full-map grows linearly with the machine; limited-pointer with
    // the log; coarse-vector with nodes/region.
    const std::size_t fm128 =
        cfgOf(SharerFormat::FullMap, 128).entryBits();
    const std::size_t fm512 =
        cfgOf(SharerFormat::FullMap, 512).entryBits();
    const std::size_t lp128 =
        cfgOf(SharerFormat::LimitedPointer, 128, 4).entryBits();
    const std::size_t lp512 =
        cfgOf(SharerFormat::LimitedPointer, 512, 4).entryBits();
    EXPECT_EQ(fm128, 2u * 128 + 8);     // owner: ceil(log2 128)+1
    EXPECT_EQ(fm512, 2u * 512 + 10);
    EXPECT_EQ(lp128, 2u * (4 * 7 + 1) + 8);
    EXPECT_EQ(lp512, 2u * (4 * 9 + 1) + 10);
    EXPECT_LT(lp512, fm128); // 4x the nodes, still far smaller
    EXPECT_EQ(cfgOf(SharerFormat::CoarseVector, 512, 4, 8).entryBits(),
              2u * 64 + 10);
}

TEST(SharerSet, DirectoryModeledStorageCountsLiveEntries)
{
    Directory d(32, 4, cfgOf(SharerFormat::LimitedPointer, 128, 4));
    EXPECT_EQ(d.modeledStorageBits(), 0u);
    d.entry(0);
    d.entry(32);
    d.entry(32); // same block: no new entry
    EXPECT_EQ(d.size(), 2u);
    EXPECT_EQ(d.modeledStorageBits(), 2u * d.config().entryBits());
}

TEST(SharerSet, LimitedPointerRunsBitIdenticalUnderCapacity)
{
    // On the two-node test machine no block ever has more than two
    // sharers, so a 4-pointer directory never overflows and must
    // reproduce the full-map run exactly — every counter, every
    // tick. This is the equivalence that let the sparse formats land
    // without re-recording any baseline.
    Params fm = test::smallParams();
    Params lp = fm;
    lp.dirFormat = SharerFormat::LimitedPointer;
    lp.dirPointers = 4;
    lp.validate();
    for (const char *proto : {"ccnuma", "scoma", "rnuma"}) {
        auto mk = [](const Params &p) {
            return makeHotRemoteReuse(p, 6, 6);
        };
        auto a = mk(fm);
        auto b = mk(lp);
        RunStats sa = runProtocol(fm, proto, *a);
        RunStats sb = runProtocol(lp, proto, *b);
        // The one field allowed to differ is the modeled storage
        // footprint (on this tiny machine the pointer overhead
        // actually exceeds the 2-bit full map; the win is at scale).
        EXPECT_NE(sb.dirBits, sa.dirBits) << proto;
        EXPECT_EQ(sa.dirEntries, sb.dirEntries) << proto;
        RunStats masked = sb;
        masked.dirBits = sa.dirBits;
        EXPECT_TRUE(sa == masked) << proto;
    }
}

TEST(SharerSet, CoarseVectorRunCompletesWithSameWork)
{
    // Coarse-vector may send extra invalidations (it names whole
    // regions) but the computation itself — references, hits, fills
    // — must be unchanged: over-approximation costs traffic, never
    // correctness. On a two-node machine with region size 2 both
    // nodes share one region bit, the maximal aliasing case.
    Params fm = test::smallParams();
    Params cv = fm;
    cv.dirFormat = SharerFormat::CoarseVector;
    cv.dirRegionSize = 2;
    cv.validate();
    auto a = makeProducerConsumer(fm, 4, 6);
    auto b = makeProducerConsumer(cv, 4, 6);
    RunStats sa = runProtocol(fm, "ccnuma", *a);
    RunStats sb = runProtocol(cv, "ccnuma", *b);
    EXPECT_EQ(sa.refs, sb.refs);
    EXPECT_EQ(sa.l1Hits, sb.l1Hits);
    EXPECT_EQ(sa.remoteFetches, sb.remoteFetches);
    EXPECT_GE(sb.invalidationsSent, sa.invalidationsSent);
}

} // namespace rnuma
