/**
 * @file
 * System-level property tests: the Section 3.2 competitive bound on
 * the adversarial reference stream, directory invariants after
 * arbitrary runs, and cross-protocol sanity properties.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/analytic_model.hh"
#include "proto/directory.hh"
#include "proto/registry.hh"
#include "rad/ccnuma_rad.hh"
#include "sim/machine.hh"
#include "sim/runner.hh"
#include "workload/micro.hh"
#include "workload/registry.hh"

#include "test_util.hh"

namespace rnuma
{

TEST(Properties, Eq1Eq2PredictAdversaryOverheads)
{
    // The Section 3.2 worst case: pages accumulate exactly the
    // threshold's worth of refetches, relocate, and die. EQ 1 and
    // EQ 2 predict R-NUMA's overhead ratio against each base
    // protocol at the configured threshold; the measured ratios
    // (relative to the infinite-block-cache ideal) must respect the
    // predictions with slack for the contention effects the model
    // ignores.
    Params p = test::smallParams(); // threshold 4
    auto wl = makeAdversary(p, 12, p.relocationThreshold + 1);
    ComparisonMatrix c =
        compareAll(p, *wl, protocolSpecs({"ccnuma", "scoma", "rnuma"}));

    double o_cc = c.norm("ccnuma") - 1.0;
    double o_sc = c.norm("scoma") - 1.0;
    double o_rn = c.norm("rnuma") - 1.0;
    ASSERT_GT(o_cc, 0.0);
    ASSERT_GT(o_sc, 0.0);

    // Structural per-page costs in the measured system. The paper's
    // model compares "extra overheads" against the ideal machine:
    //  - CC-NUMA's extra is T refetches (the soft map fault is paid
    //    by the ideal baseline too and cancels);
    //  - S-COMA's extra is one allocation, *minus* the map fault it
    //    replaces;
    //  - R-NUMA's extra is T refetches plus a relocation plus the
    //    page's eventual replacement (both full page operations).
    double cr = static_cast<double>(p.remoteFetch());
    double page_op = static_cast<double>(p.pageOpCost(1));
    double trap = static_cast<double>(p.softTrap);
    double T = static_cast<double>(p.relocationThreshold);
    double rn_pred = T * cr + 2.0 * page_op;
    double cc_pred = T * cr;
    double sc_pred = page_op - trap;

    EXPECT_LE(o_rn, rn_pred / cc_pred * o_cc * 1.35)
        << "EQ 1 violated: measured ratio " << o_rn / o_cc
        << " vs predicted " << rn_pred / cc_pred;
    EXPECT_LE(o_rn, rn_pred / sc_pred * o_sc * 1.35)
        << "EQ 2 violated: measured ratio " << o_rn / o_sc
        << " vs predicted " << rn_pred / sc_pred;
}

TEST(Properties, BoundedAtEmpiricalOptimalThreshold)
{
    // EQ 3's structure: choosing T at the intersection of the two
    // overhead curves bounds R-NUMA's worst case by a computable
    // constant independent of how long the adversary runs.
    Params p = test::smallParams();
    double cr = static_cast<double>(p.remoteFetch());
    double page_op = static_cast<double>(p.pageOpCost(1));
    double sc_pred = page_op - static_cast<double>(p.softTrap);
    p.relocationThreshold =
        static_cast<std::size_t>(sc_pred / cr + 0.5);
    ASSERT_GE(p.relocationThreshold, 1u);

    auto wl = makeAdversary(p, 12, p.relocationThreshold + 1);
    ComparisonMatrix c =
        compareAll(p, *wl, protocolSpecs({"ccnuma", "scoma", "rnuma"}));
    double o_cc = c.norm("ccnuma") - 1.0;
    double o_sc = c.norm("scoma") - 1.0;
    double o_rn = c.norm("rnuma") - 1.0;
    double best = std::min(o_cc, o_sc);
    ASSERT_GT(best, 0.0);

    double T = static_cast<double>(p.relocationThreshold);
    double bound = (T * cr + 2.0 * page_op) /
        std::min(T * cr, sc_pred);
    EXPECT_LE(o_rn, bound * best * 1.35)
        << "R-NUMA overhead " << o_rn << " vs best " << best
        << " exceeds the adjusted competitive bound " << bound;
}

TEST(Properties, AdversaryTriggersTheFullLifecycle)
{
    Params p = test::smallParams();
    auto wl = makeAdversary(p, 12, p.relocationThreshold + 1);
    RunStats s = runProtocol(p, "rnuma", *wl);
    // Pages relocate and later get replaced (12 pages vs 4 frames).
    EXPECT_GT(s.relocations, 4u);
    EXPECT_GT(s.scomaReplacements, 0u);
}

TEST(Properties, RnumaNeverWorseThanBothOnMicrobenchmarks)
{
    // Section 6: "R-NUMA never performs worse than both CC-NUMA and
    // S-COMA." Check on both extremes of the microbenchmark space.
    Params p = test::smallParams();
    for (auto make : {+[](const Params &pp) {
                          return makeHotRemoteReuse(pp, 6, 6);
                      },
                      +[](const Params &pp) {
                          return makeProducerConsumer(pp, 4, 5);
                      }}) {
        auto wl = make(p);
        ComparisonMatrix c = compareAll(
            p, *wl, protocolSpecs({"ccnuma", "scoma", "rnuma"}));
        double worst = std::max(c.norm("ccnuma"), c.norm("scoma"));
        EXPECT_LE(c.norm("rnuma"), worst * 1.05)
            << "workload " << wl->name();
    }
}

namespace
{

/**
 * Walk every live directory entry and check the ownership
 * invariants: a dirty owner always has its sharer bit, and where the
 * set is exact (full-map, or limited-pointer before overflow) it is
 * the only sharer. The walk must visit exactly size() entries.
 */
void
checkDirectoryInvariants(Machine &m)
{
    const Directory &dir = m.protocol().directory();
    const SharerFormat fmt = dir.config().format;
    std::size_t walked = 0;
    dir.forEachLive([&](Addr block, ConstDirEntry e) {
        ++walked;
        if (!e.hasOwner())
            return;
        EXPECT_TRUE(e.sharers.test(e.owner()))
            << "owner without sharer bit at block " << block;
        const bool exact = fmt == SharerFormat::FullMap ||
            (fmt == SharerFormat::LimitedPointer &&
             !e.sharers.overflowed());
        if (exact) {
            EXPECT_EQ(e.sharerCount(), 1u)
                << "dirty owner must be the sole sharer at block "
                << block;
        }
    });
    EXPECT_EQ(walked, dir.size());
    EXPECT_GT(walked, 0u);
}

/**
 * Machine-level Dir_iB coverage: on a 16-node, one-CPU-per-node
 * CC-NUMA machine, the CPUs of @p readers each read one block homed
 * on node 0, every CPU meets at a barrier, then node 0 writes the
 * block. Runs under @p dir ("full-map", "limited-pointer-4",
 * "coarse-vector-4"), checks that the writer ends as the only holder
 * of the block everywhere, and returns the invalidations the write
 * sent.
 */
std::uint64_t
writeAfterWideSharing(const std::string &dir,
                      const std::vector<NodeId> &readers)
{
    SCOPED_TRACE(dir);
    Params p = test::paperParams();
    p.numNodes = 16;
    p.cpusPerNode = 1;
    if (dir == "limited-pointer-4") {
        p.dirFormat = SharerFormat::LimitedPointer;
        p.dirPointers = 4;
    } else if (dir == "coarse-vector-4") {
        p.dirFormat = SharerFormat::CoarseVector;
        p.dirRegionSize = 4;
    }
    p.validate();
    EXPECT_EQ(p.directoryId(), dir);

    const Addr block = 0x40000;
    VectorWorkload wl("wide-share", p.numCpus());
    wl.push(0, Ref::touchOf(block)); // home the page on node 0
    for (NodeId n : readers)
        wl.push(n, Ref::mem(block, false, 1));
    wl.pushBarrierAll();
    wl.push(0, Ref::mem(block, true, 1));
    wl.seal();
    wl.reset();

    Machine m(p, *findProtocolSpec("ccnuma"), wl);
    RunStats s = m.run();
    EXPECT_EQ(m.placement().homeOf(block / p.pageSize), 0u);
    checkDirectoryInvariants(m);

    // The writer is the registered owner and the only true holder:
    // its L1 has the block Modified; no other L1 or block cache has
    // it at all.
    const ConstDirEntry e = m.protocol().directory().peek(block);
    EXPECT_TRUE(e && e.hasOwner() && e.owner() == 0);
    EXPECT_FALSE(e.sharers.overflowed());
    EXPECT_EQ(e.sharerCount(),
              p.dirFormat == SharerFormat::CoarseVector ? 4u : 1u);
    const CacheLine *mine = m.node(0).l1(0).find(block);
    EXPECT_TRUE(mine && mine->state == CacheState::Modified);
    for (NodeId n = 1; n < p.numNodes; ++n) {
        const CacheLine *l1 = m.node(n).l1(0).find(block);
        EXPECT_FALSE(l1 && l1->valid()) << "node " << n << " L1";
        const auto &rad =
            dynamic_cast<const CcNumaRad &>(m.node(n).rad());
        const CacheLine *bc = rad.blockCache().find(block);
        EXPECT_FALSE(bc && bc->valid()) << "node " << n << " RAD";
    }
    return s.invalidationsSent;
}

} // namespace

TEST(Properties, LimitedPointerBroadcastsOnlyAfterOverflow)
{
    // Every node reads: all three formats name all 16 nodes, and the
    // write invalidates the 15 that are not the writer.
    std::vector<NodeId> all;
    for (NodeId n = 0; n < 16; ++n)
        all.push_back(n);
    for (const char *dir :
         {"full-map", "limited-pointer-4", "coarse-vector-4"})
        EXPECT_EQ(writeAfterWideSharing(dir, all), 15u) << dir;

    // Nodes 1-6 read: full-map is exact, four pointers overflow to a
    // broadcast of every node but the writer, and 4-node regions
    // {0-3} and {4-7} cover nodes 0-7 less the writer.
    const std::vector<NodeId> some = {1, 2, 3, 4, 5, 6};
    EXPECT_EQ(writeAfterWideSharing("full-map", some), 6u);
    EXPECT_EQ(writeAfterWideSharing("limited-pointer-4", some), 15u);
    EXPECT_EQ(writeAfterWideSharing("coarse-vector-4", some), 7u);
}

TEST(Properties, OwnerImpliesSharerBit)
{
    Params p = test::smallParams();
    auto wl = makeRwSharing(p, 60);
    wl->reset();
    Machine m(p, protocolSpec("rnuma"), *wl);
    m.run();
    checkDirectoryInvariants(m);
    // Spot-check the shared page's blocks through the public API.
    for (std::size_t blk = 0; blk < p.blocksPerPage(); ++blk) {
        Addr a = static_cast<Addr>(blk) * p.blockSize;
        const ConstDirEntry e = m.protocol().directory().peek(a);
        if (!e || !e.hasOwner())
            continue;
        EXPECT_TRUE(e.sharers.test(e.owner()))
            << "owner without sharer bit at block " << a;
        EXPECT_EQ(e.sharerCount(), 1u)
            << "dirty owner must be the sole sharer";
    }
}

TEST(Properties, DirectoryInvariantsHoldAfterAppInEveryFormat)
{
    // A Figure 6 app on the paper's machine, under each base
    // protocol and R-NUMA, with each sharer format. Two pointers and
    // two-node regions make the sparse formats overflow and alias.
    for (SharerFormat fmt :
         {SharerFormat::FullMap, SharerFormat::LimitedPointer,
          SharerFormat::CoarseVector}) {
        Params p = test::paperParams();
        p.dirFormat = fmt;
        p.dirPointers = 2;
        p.dirRegionSize = 2;
        p.validate();
        for (const char *proto : {"ccnuma", "scoma", "rnuma"}) {
            auto wl = makeApp("em3d", p, 0.05);
            wl->reset();
            Machine m(p, protocolSpec(proto), *wl);
            m.run();
            SCOPED_TRACE(p.directoryId() + " " + proto);
            checkDirectoryInvariants(m);
        }
    }
}

/** Cross-protocol conservation sweep over apps and protocols. */
class ConservationSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, std::string>>
{
};

TEST_P(ConservationSweep, MissKindsAndServiceCountsAddUp)
{
    auto [app, proto] = GetParam();
    Params p = test::paperParams();
    auto wl = makeApp(app, p, 0.1);
    RunStats s = runProtocol(p, proto, *wl);
    EXPECT_EQ(s.coldMisses + s.coherenceMisses + s.refetches,
              s.remoteFetches);
    // Every reference is a hit, an upgrade, or a miss.
    EXPECT_EQ(s.refs, s.l1Hits + s.l1Misses + s.upgrades);
    // Stall time is bounded by total time across CPUs.
    EXPECT_LE(s.stallCycles,
              s.ticks * p.numCpus());
}

INSTANTIATE_TEST_SUITE_P(
    AppsByProtocol, ConservationSweep,
    ::testing::Combine(::testing::Values("barnes", "em3d", "moldyn",
                                         "radix", "ocean"),
                       ::testing::Values("ccnuma", "scoma",
                                         "rnuma")),
    [](const ::testing::TestParamInfo<
        std::tuple<std::string, std::string>> &info) {
        // Readable, filterable names: barnes_ccnuma, radix_rnuma...
        return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

} // namespace rnuma
