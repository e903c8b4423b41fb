/** @file Unit tests for directory entries and storage. */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "proto/directory.hh"

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

} // namespace

TEST(Directory, PeekMissingIsNull)
{
    Directory d;
    EXPECT_FALSE(d.peek(0x1000));
    EXPECT_EQ(d.size(), 0u);
}

TEST(Directory, EntryCreatesAndPersists)
{
    Directory d;
    DirEntry e = d.entry(0x1000);
    e.sharers.set(3);
    EXPECT_EQ(d.size(), 1u);
    const ConstDirEntry p = d.peek(0x1000);
    ASSERT_TRUE(p);
    EXPECT_TRUE(p.sharers.test(3));
}

TEST(DirEntry, DefaultsAreClean)
{
    Directory d;
    DirEntry e = d.entry(0);
    EXPECT_FALSE(e.hasOwner());
    EXPECT_EQ(e.owner(), invalidNode);
    EXPECT_EQ(e.sharerCount(), 0u);
    EXPECT_TRUE(e.prior.none());
    EXPECT_TRUE(e.touched.none());
}

TEST(DirEntry, OwnerAndSharerCounts)
{
    Directory d;
    DirEntry e = d.entry(0);
    e.setOwner(2);
    e.sharers.set(2);
    e.sharers.set(5);
    EXPECT_TRUE(e.hasOwner());
    EXPECT_EQ(e.owner(), 2u);
    EXPECT_EQ(e.sharerCount(), 2u);
    // Node 0 is a real owner, distinct from "no owner".
    e.setOwner(0);
    EXPECT_TRUE(e.hasOwner());
    EXPECT_EQ(e.owner(), 0u);
    e.setOwner(invalidNode);
    EXPECT_FALSE(e.hasOwner());
    EXPECT_EQ(e.sharerCount(), 2u);
}

TEST(Directory, EntriesOfAPageAreIndependent)
{
    // Neighbouring entries share one group array; writing one must
    // leave the others untouched, and all stay live and distinct.
    Directory d(64, 4, cfgOf(SharerFormat::FullMap, 130));
    for (NodeId n = 0; n < 4; ++n) {
        DirEntry e = d.entry(Addr(n) * 64);
        e.setOwner(n + 126);
        e.sharers.set(n + 126);
        e.prior.set(n);
        e.touched.set(129 - n);
    }
    EXPECT_EQ(d.size(), 4u);
    for (NodeId n = 0; n < 4; ++n) {
        const ConstDirEntry e = d.peek(Addr(n) * 64);
        ASSERT_TRUE(e);
        EXPECT_EQ(e.owner(), n + 126);
        EXPECT_EQ(e.sharerCount(), 1u);
        EXPECT_TRUE(e.sharers.test(n + 126));
        EXPECT_EQ(e.prior.count(), 1u);
        EXPECT_TRUE(e.prior.test(n));
        EXPECT_EQ(e.touched.count(), 1u);
        EXPECT_TRUE(e.touched.test(129 - n));
    }
}

TEST(Directory, ForEachLiveWalksExactlyTheLiveEntries)
{
    Directory d(64, 8, cfgOf(SharerFormat::LimitedPointer, 16, 2));
    const Addr blocks[] = {0, 64, 7 * 64, 8 * 64, 1000 * 64};
    for (Addr a : blocks)
        d.entry(a).sharers.set(static_cast<NodeId>(a / 64 % 16));
    // A probe of an untouched block of a live group creates nothing.
    EXPECT_FALSE(d.peek(2 * 64));
    std::size_t walked = 0;
    d.forEachLive([&](Addr block, ConstDirEntry e) {
        ++walked;
        EXPECT_NE(std::find(std::begin(blocks), std::end(blocks), block),
                  std::end(blocks))
            << block;
        EXPECT_TRUE(e.sharers.test(static_cast<NodeId>(block / 64 % 16)));
    });
    EXPECT_EQ(walked, d.size());
    EXPECT_EQ(walked, std::size(blocks));
}

TEST(Directory, EntryFootprintIsFourWordsUpTo64Nodes)
{
    // The hot entry is one meta word (owner, live bit, overflow
    // bits) plus one word each of sharers, prior and touched: 32 B
    // in every format on up to 64 nodes. A field that silently grows
    // the entry fails here.
    using F = SharerFormat;
    for (std::size_t nodes : {1, 2, 8, 32, 63, 64}) {
        for (DirConfig cfg : {cfgOf(F::FullMap, nodes),
                              cfgOf(F::LimitedPointer, nodes, 1),
                              cfgOf(F::LimitedPointer, nodes, 4),
                              cfgOf(F::CoarseVector, nodes, 4, 1),
                              cfgOf(F::CoarseVector, nodes, 4, 8)}) {
            Directory d(64, 64, cfg);
            EXPECT_EQ(d.entryWords(), 4u) << nodes << " nodes";
            EXPECT_LE(d.entryWords() * sizeof(std::uint64_t), 32u);
        }
    }
}

TEST(Directory, EntryFootprintGrowthPer64Slots)
{
    // Beyond 64 nodes each further 64 sharer slots add one word to
    // sharers and one to prior; each further 64 nodes add one word
    // to the exact touched set. Full-map and limited-pointer have one
    // slot per node (3 words per 64 nodes); coarse-vector one slot
    // per region.
    auto words = [](DirConfig cfg) {
        return Directory(64, 64, cfg).entryWords();
    };
    EXPECT_EQ(words(cfgOf(SharerFormat::FullMap, 65)), 7u);
    EXPECT_EQ(words(cfgOf(SharerFormat::FullMap, 128)), 7u);
    EXPECT_EQ(words(cfgOf(SharerFormat::FullMap, 512)), 25u);
    EXPECT_EQ(words(cfgOf(SharerFormat::LimitedPointer, 128, 4)), 7u);
    EXPECT_EQ(words(cfgOf(SharerFormat::LimitedPointer, 512, 4)), 25u);
    // 512 nodes / 8 per region = 64 slots: one word per sharer set.
    EXPECT_EQ(words(cfgOf(SharerFormat::CoarseVector, 512, 4, 8)), 11u);
    EXPECT_EQ(words(cfgOf(SharerFormat::CoarseVector, 512, 4, 4)), 13u);
    for (std::size_t k = 1; k <= 8; ++k) {
        const std::size_t nodes = 64 * k;
        EXPECT_EQ(words(cfgOf(SharerFormat::FullMap, nodes)), 1 + 3 * k);
        EXPECT_EQ(words(cfgOf(SharerFormat::LimitedPointer, nodes, 2)),
                  1 + 3 * k);
        EXPECT_EQ(words(cfgOf(SharerFormat::CoarseVector, nodes, 4, 3)),
                  1 + 2 * (((nodes + 2) / 3 + 63) / 64) + k);
    }
}

} // namespace rnuma
