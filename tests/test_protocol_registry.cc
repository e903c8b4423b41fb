/**
 * @file
 * Tests for the protocol registry (proto/registry.hh): name -> spec
 * -> Rad round-trips through a real Machine, lookup normalization
 * (ids in any case; display names are not ids), the unknown-name
 * error path, Figure 8's staticThresholdSpec variants against the
 * pre-registry "params hack" equivalent, and end-to-end runs of the
 * new policy protocols.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/analytic_model.hh"
#include "proto/registry.hh"
#include "sim/machine.hh"
#include "sim/runner.hh"
#include "workload/micro.hh"

#include "test_util.hh"

namespace rnuma
{

namespace
{

/** A reuse-heavy pattern on the tiny machine: more remote pages
 *  than page-cache frames, so relocations and evictions happen. */
std::unique_ptr<VectorWorkload>
reuseWorkload(const Params &p)
{
    return makeHotRemoteReuse(p, 12, 6);
}

} // namespace

TEST(ProtocolRegistry, HasTheBuiltinsInOrder)
{
    auto all = ProtocolRegistry::global().all();
    ASSERT_GE(all.size(), 6u);
    EXPECT_EQ(all[0]->id, "ccnuma");
    EXPECT_EQ(all[1]->id, "scoma");
    EXPECT_EQ(all[2]->id, "rnuma");
    EXPECT_EQ(all[3]->id, "rnuma-hysteresis");
    EXPECT_EQ(all[4]->id, "rnuma-adaptive");
    EXPECT_EQ(all[5]->id, "rnuma-model");
    for (const ProtocolSpec *s : all) {
        EXPECT_TRUE(s->valid()) << s->id;
        EXPECT_FALSE(s->displayName.empty()) << s->id;
        EXPECT_FALSE(s->description.empty()) << s->id;
    }
}

TEST(ProtocolRegistry, LookupNormalizesNames)
{
    const ProtocolSpec &cc = protocolSpec("ccnuma");
    EXPECT_EQ(findProtocolSpec("CCNUMA"), &cc);
    EXPECT_EQ(findProtocolSpec("RNuma"), &protocolSpec("rnuma"));
    // Display names are labels, not ids.
    EXPECT_EQ(cc.displayName, "CC-NUMA");
    EXPECT_EQ(findProtocolSpec("CC-NUMA"), nullptr);
    EXPECT_EQ(canonicalProtocolId("R-NUMA"), "r-numa");
    EXPECT_EQ(canonicalProtocolId("rnuma-t16"), "rnuma-t16");
}

TEST(ProtocolRegistry, UnknownNameIsAnError)
{
    EXPECT_EQ(findProtocolSpec("no-such-protocol"), nullptr);
    EXPECT_THROW(protocolSpec("no-such-protocol"),
                 std::runtime_error);
}

TEST(ProtocolRegistry, RejectsInvalidAndDuplicateSpecs)
{
    ProtocolSpec empty;
    EXPECT_THROW(ProtocolRegistry::global().add(std::move(empty)),
                 std::logic_error);
    // Duplicate id: fatal.
    ProtocolSpec dup = protocolSpec("ccnuma");
    EXPECT_THROW(ProtocolRegistry::global().add(std::move(dup)),
                 std::runtime_error);
}

TEST(ProtocolRegistry, NameToSpecToRadRoundTrip)
{
    // Running a machine by registry name is bit-identical to
    // running it on the resolved spec, for each paper system.
    Params p = test::smallParams();
    for (const char *name : {"ccnuma", "scoma", "rnuma"}) {
        auto wl_a = reuseWorkload(p);
        auto wl_b = reuseWorkload(p);
        RunStats by_name = runProtocol(p, name, *wl_a);
        Machine m(p, protocolSpec(name), *wl_b);
        EXPECT_EQ(m.protocolId(), name);
        EXPECT_EQ(by_name, m.run()) << name;
        EXPECT_GT(by_name.refs, 0u);
    }
}

TEST(ProtocolRegistry, MachineReportsItsProtocolId)
{
    Params p = test::smallParams();
    auto wl = reuseWorkload(p);
    Machine m(p, protocolSpec("rnuma-adaptive"), *wl);
    EXPECT_EQ(m.protocolId(), "rnuma-adaptive");
}

TEST(ProtocolRegistry, StaticThresholdSpecMatchesTheParamsHack)
{
    // Figure 8's policy sweep replaced mutating
    // Params::relocationThreshold. Both roads must lead to the same
    // simulated machine, tick for tick.
    Params base = test::smallParams();
    for (std::size_t T : {2u, 4u, 8u}) {
        Params hacked = base;
        hacked.relocationThreshold = T;
        auto wl_a = reuseWorkload(base);
        auto wl_b = reuseWorkload(base);
        RunStats via_spec =
            runProtocol(base, staticThresholdSpec(T), *wl_a);
        RunStats via_params =
            runProtocol(hacked, "rnuma", *wl_b);
        EXPECT_EQ(via_spec, via_params) << "T=" << T;
    }
}

TEST(ProtocolRegistry, NewPoliciesRunEndToEndAndDeterministically)
{
    Params p = test::smallParams();
    for (const char *name : {"rnuma-hysteresis", "rnuma-adaptive"}) {
        auto wl_a = reuseWorkload(p);
        auto wl_b = reuseWorkload(p);
        RunStats a = runProtocol(p, std::string(name), *wl_a);
        RunStats b = runProtocol(p, std::string(name), *wl_b);
        EXPECT_EQ(a, b) << name;
        EXPECT_GT(a.refs, 0u) << name;
        EXPECT_GT(a.relocations, 0u) << name;
    }
}

TEST(ProtocolRegistry, HysteresisRelocatesNoMoreThanStatic)
{
    // On an eviction-heavy reuse pattern (12 remote pages, 4
    // page-cache frames) pages relocate, fall out, and re-qualify;
    // hysteresis raises the re-entry bar, so it can only relocate
    // less often than the static rule.
    Params p = test::smallParams();
    auto wl_s = reuseWorkload(p);
    auto wl_h = reuseWorkload(p);
    RunStats stat = runProtocol(p, std::string("rnuma"), *wl_s);
    RunStats hyst =
        runProtocol(p, std::string("rnuma-hysteresis"), *wl_h);
    EXPECT_GT(stat.relocations, 0u);
    EXPECT_LE(hyst.relocations, stat.relocations);
    EXPECT_EQ(stat.refs, hyst.refs); // same workload either way
}

TEST(ProtocolRegistry, ModelPolicyIsSeededFromTheAnalyticOptimum)
{
    // The registry-enabled one-file experiment: rnuma-model's static
    // threshold comes from AnalyticModel::optimalThreshold() for the
    // Params the machine actually runs, not from
    // Params::relocationThreshold.
    Params p = test::smallParams();
    const ProtocolSpec &spec = protocolSpec("rnuma-model");
    ASSERT_TRUE(spec.makePolicy != nullptr);
    auto policy = spec.makePolicy(p);
    AnalyticModel model(
        ModelParams::fromSystem(p, p.blocksPerPage() / 2));
    auto expected = static_cast<std::size_t>(
        std::llround(model.optimalThreshold()));
    if (expected < 1)
        expected = 1;
    auto *st = dynamic_cast<StaticThresholdPolicy *>(policy.get());
    ASSERT_NE(st, nullptr);
    EXPECT_EQ(st->threshold(), expected);

    // And it runs end to end, deterministically, like any builtin.
    auto wl_a = reuseWorkload(p);
    auto wl_b = reuseWorkload(p);
    RunStats a = runProtocol(p, std::string("rnuma-model"), *wl_a);
    RunStats b = runProtocol(p, std::string("rnuma-model"), *wl_b);
    EXPECT_EQ(a, b);
    EXPECT_GT(a.refs, 0u);
}

TEST(ProtocolRegistry, ConcurrentRegistrationAndLookupIsSafe)
{
    // The registry is process-global shared state; sweep workers may
    // register ad-hoc specs while others resolve names. Hammer both
    // paths from many threads — under TSan this is the test that
    // catches an unguarded table, and even without TSan a torn
    // vector usually crashes. Registered test specs stay in the
    // global registry afterwards (specs are never removed), which
    // is harmless: ids are namespaced with a test prefix.
    constexpr int writers = 4;
    constexpr int readers = 4;
    constexpr int perWriter = 8;
    // Ids must be fresh per in-process run of this test (e.g.
    // --gtest_repeat): the global registry never forgets, and a
    // duplicate registration is fatal — from inside a thread that
    // would terminate the whole binary.
    static int runSeq = 0;
    const std::string prefix =
        "rnuma-test-race-r" + std::to_string(runSeq++) + "-w";
    std::atomic<bool> go{false};
    std::atomic<int> registered{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; ++w) {
        threads.emplace_back([w, &go, &registered, &prefix] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < perWriter; ++i) {
                std::string id = prefix +
                    std::to_string(w) + "-" + std::to_string(i);
                ProtocolRegistry::global().add(hybridSpec(
                    id, "R-NUMA(race)", "concurrency test spec",
                    [](const Params &) {
                        return std::unique_ptr<RelocationPolicy>(
                            std::make_unique<
                                StaticThresholdPolicy>(1));
                    }));
                registered.fetch_add(1);
            }
        });
    }
    // gtest macros are not thread-safe; readers tally failures into
    // an atomic and the main thread asserts afterwards.
    std::atomic<int> readerFailures{0};
    for (int r = 0; r < readers; ++r) {
        threads.emplace_back([&go, &readerFailures] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < 200; ++i) {
                // Builtins resolve throughout...
                if (findProtocolSpec("rnuma") == nullptr)
                    readerFailures.fetch_add(1);
                // ...and enumeration yields only valid specs.
                for (const ProtocolSpec *s :
                     ProtocolRegistry::global().all()) {
                    if (!s->valid())
                        readerFailures.fetch_add(1);
                }
            }
        });
    }
    go.store(true);
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(readerFailures.load(), 0);
    EXPECT_EQ(registered.load(), writers * perWriter);
    // Every concurrently registered spec is resolvable afterwards.
    for (int w = 0; w < writers; ++w) {
        for (int i = 0; i < perWriter; ++i) {
            std::string id = prefix + std::to_string(w) + "-" +
                std::to_string(i);
            EXPECT_NE(findProtocolSpec(id), nullptr) << id;
        }
    }
}

TEST(ProtocolRegistry, HybridSpecComposesCustomPolicies)
{
    // The extension point a downstream protocol author uses: an
    // unregistered spec with a custom policy wiring, runnable
    // directly.
    ProtocolSpec custom = hybridSpec(
        "rnuma-eager", "R-NUMA(eager)", "relocates on first refetch",
        [](const Params &) {
            return std::unique_ptr<RelocationPolicy>(
                std::make_unique<StaticThresholdPolicy>(1));
        });
    Params p = test::smallParams();
    auto wl_eager = reuseWorkload(p);
    auto wl_base = reuseWorkload(p);
    RunStats eager = runProtocol(p, custom, *wl_eager);
    RunStats base = runProtocol(p, std::string("rnuma"), *wl_base);
    // Threshold 1 relocates at the very first refetch, so it can
    // never relocate less than the threshold-4 rule here.
    EXPECT_GE(eager.relocations, base.relocations);
    EXPECT_GT(eager.relocations, 0u);
}

} // namespace rnuma
