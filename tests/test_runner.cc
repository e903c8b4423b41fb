/**
 * @file
 * Tests for the comparison runner: the registry-driven
 * ComparisonMatrix (N-way, serial and parallel), the winner/regret
 * summary, the unknown-spec error paths, and the degenerate
 * zero-tick-baseline case (NaN, not a panic).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "sim/runner.hh"
#include "workload/micro.hh"
#include "workload/registry.hh"

#include "test_util.hh"

namespace rnuma
{

TEST(Runner, BaselineUsesInfiniteBlockCache)
{
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 8, 3);
    RunStats base = runInfiniteBaseline(p, *wl);
    EXPECT_EQ(base.refetches, 0u);
}

TEST(Runner, CompareRunsAllFourConfigurations)
{
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 4, 3);
    ComparisonMatrix c =
        compareAll(p, *wl, protocolSpecs({"ccnuma", "scoma", "rnuma"}));
    EXPECT_GT(c.baseline.ticks, 0u);
    EXPECT_GT(c.at("ccnuma").stats.ticks, 0u);
    EXPECT_GT(c.at("scoma").stats.ticks, 0u);
    EXPECT_GT(c.at("rnuma").stats.ticks, 0u);
    // Normalized values are relative to the infinite baseline.
    EXPECT_NEAR(c.norm("ccnuma"),
                static_cast<double>(c.at("ccnuma").stats.ticks) /
                    static_cast<double>(c.baseline.ticks),
                1e-12);
    EXPECT_LE(c.bestOfBase(), c.norm("ccnuma"));
    EXPECT_LE(c.bestOfBase(), c.norm("scoma"));
}

TEST(Runner, ResetsWorkloadBetweenRuns)
{
    Params p = test::smallParams();
    auto wl = makePrivateLoop(p, 1, 2);
    RunStats a = runProtocol(p, "ccnuma", *wl);
    // Without the reset inside runProtocol the second run would see
    // exhausted streams and do nothing.
    RunStats b = runProtocol(p, "ccnuma", *wl);
    EXPECT_EQ(a.refs, b.refs);
    EXPECT_GT(b.refs, 0u);
}

TEST(ComparisonMatrixTest, DefaultSelectionCoversTheRegistry)
{
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 6, 3);
    ComparisonMatrix m = compareAll(p, *wl);
    auto all = ProtocolRegistry::global().all();
    ASSERT_EQ(m.entries.size(), all.size());
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(m.entries[i].id, all[i]->id);
        EXPECT_EQ(m.entries[i].name, all[i]->displayName);
        EXPECT_GT(m.entries[i].stats.ticks, 0u) << all[i]->id;
        EXPECT_EQ(m.entries[i].stats.refs, m.baseline.refs)
            << all[i]->id;
    }
}

TEST(ComparisonMatrixTest, SerialAndParallelAreBitIdentical)
{
    Params p = test::smallParams();
    auto make = [&p] {
        return std::unique_ptr<Workload>(makeHotRemoteReuse(p, 6, 3));
    };
    auto wl = make();
    ComparisonMatrix serial = compareAll(p, *wl);
    for (std::size_t jobs : {1u, 2u, 8u}) {
        ComparisonMatrix par = compareAll(p, make, {}, jobs);
        EXPECT_EQ(par.baseline, serial.baseline) << "jobs=" << jobs;
        ASSERT_EQ(par.entries.size(), serial.entries.size());
        for (std::size_t i = 0; i < serial.entries.size(); ++i) {
            EXPECT_EQ(par.entries[i].id, serial.entries[i].id);
            EXPECT_EQ(par.entries[i].stats, serial.entries[i].stats)
                << serial.entries[i].id << " at jobs=" << jobs;
        }
    }
}

TEST(ComparisonMatrixTest, RegistryAppsAreDeterministicAcrossJobs)
{
    // The differential-determinism safety net under the hot-path
    // layout work (arena directory, SoA page cache, auto-sized
    // calendar): every registered protocol on real application
    // generators, serial vs jobs=4, must produce bit-identical
    // RunStats — all 28 counters, via RunStats::operator== — at more
    // than one scale, so a data-layout change that silently breaks
    // reproducibility cannot land.
    Params p = test::smallParams();
    for (const char *app : {"barnes", "em3d", "moldyn"}) {
        for (double scale : {0.02, 0.05}) {
            auto make = [&]() -> std::unique_ptr<Workload> {
                return makeWorkload(app, p, scale, /*seed=*/7);
            };
            auto wl = make();
            ComparisonMatrix serial = compareAll(p, *wl);
            ComparisonMatrix par = compareAll(p, make, {}, 4);
            EXPECT_EQ(par.baseline, serial.baseline)
                << app << " scale " << scale;
            ASSERT_EQ(par.entries.size(), serial.entries.size());
            for (std::size_t i = 0; i < serial.entries.size(); ++i) {
                EXPECT_EQ(par.entries[i].id, serial.entries[i].id);
                EXPECT_EQ(par.entries[i].stats,
                          serial.entries[i].stats)
                    << app << " scale " << scale << " "
                    << serial.entries[i].id;
            }
        }
    }
}

TEST(ComparisonMatrixTest, WinnerAndRegretAreCoherent)
{
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 6, 3);
    ComparisonMatrix m = compareAll(p, *wl);
    const ComparisonEntry &w = m.winner();
    EXPECT_DOUBLE_EQ(m.regret(w.id), 0.0);
    for (const ComparisonEntry &e : m.entries) {
        EXPECT_GE(m.regret(e.id), 0.0) << e.id;
        EXPECT_GE(e.stats.ticks, w.stats.ticks) << e.id;
    }
}

TEST(ComparisonMatrixTest, UnknownSpecIdsAreErrors)
{
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 4, 2);
    // Resolving an unknown name for the spec list throws.
    EXPECT_THROW(protocolSpecs({"ccnuma", "no-such-protocol"}),
                 std::runtime_error);
    // Looking up an id that did not run throws too.
    ComparisonMatrix m =
        compareAll(p, *wl, protocolSpecs({"ccnuma"}));
    EXPECT_EQ(m.find("scoma"), nullptr);
    EXPECT_THROW(m.at("scoma"), std::runtime_error);
    EXPECT_THROW(m.norm("scoma"), std::runtime_error);
    EXPECT_THROW(m.bestOfBase(), std::runtime_error);
}

TEST(ComparisonMatrixTest, AdHocSpecsNeedNoRegistration)
{
    // Figure 8-style variants run through the same matrix without
    // touching the global registry.
    Params p = test::smallParams();
    auto wl = makeHotRemoteReuse(p, 6, 3);
    ComparisonMatrix m =
        compareAll(p, *wl, {staticThresholdSpec(2)});
    ASSERT_EQ(m.entries.size(), 1u);
    EXPECT_EQ(m.entries[0].id, "rnuma-t2");
    EXPECT_GT(m.norm("rnuma-t2"), 0.0);
}

TEST(ComparisonMatrixTest, ZeroTickBaselineIsNaNNotAPanic)
{
    // Degenerate one-reference workloads at tiny scales can in
    // principle produce a zero-tick baseline; normalized values must
    // be defined (NaN: a flagged cell) instead of tripping an
    // assertion mid-figure.
    ComparisonMatrix m;
    m.baseline = RunStats{}; // ticks == 0
    ComparisonEntry e;
    e.id = "x";
    e.stats.ticks = 5;
    m.entries.push_back(e);
    EXPECT_TRUE(std::isnan(m.norm("x")));
    EXPECT_TRUE(std::isnan(m.bestOf({"x"})));
    // Regret compares against the winner, not the baseline, so it
    // stays defined even here.
    EXPECT_DOUBLE_EQ(m.regret("x"), 0.0);
}

} // namespace rnuma
