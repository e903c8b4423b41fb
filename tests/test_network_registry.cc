/**
 * @file
 * Tests for the network registry (net/registry.hh): built-in specs,
 * id-only lookup, makeNetwork() dispatch, the model-derived
 * remote-fetch latency, Params::validate()'s geometry rejection, and
 * the same concurrent registration/lookup hammer the protocol
 * registry carries — the registries share a locking discipline and
 * must share its proof.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <stdexcept>
#include <thread>
#include <vector>

#include "net/registry.hh"
#include "net/topology.hh"
#include "proto/registry.hh"
#include "workload/registry.hh"

namespace rnuma
{

namespace
{

std::string
upper(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
    return s;
}

/** Every spec resolves by its id in any case, and by nothing else. */
template <class Spec>
void
expectIdOnlyLookup(const Registry<Spec> &reg)
{
    std::size_t distinct = 0;
    for (const Spec *s : reg.all()) {
        EXPECT_EQ(reg.find(s->id), s) << s->id;
        EXPECT_EQ(reg.find(upper(s->id)), s) << s->id;
        if (upper(s->displayName) != upper(s->id)) {
            ++distinct;
            EXPECT_EQ(reg.find(s->displayName), nullptr)
                << Spec::kind << " display name '" << s->displayName
                << "' resolved";
        }
    }
    EXPECT_GT(distinct, 0u) << Spec::kind;
}

} // namespace

TEST(Registry, DisplayNamesAreNotIdsInAnyRegistry)
{
    expectIdOnlyLookup(NetworkRegistry::global());
    expectIdOnlyLookup(ProtocolRegistry::global());
    expectIdOnlyLookup(WorkloadRegistry::global());
}

TEST(NetworkRegistry, BuiltinsResolveByIdInAnyCase)
{
    EXPECT_NE(findNetworkSpec("constant"), nullptr);
    EXPECT_NE(findNetworkSpec("mesh-2d"), nullptr);
    EXPECT_NE(findNetworkSpec("fat-tree"), nullptr);
    EXPECT_EQ(networkSpec("MESH-2D").id, "mesh-2d");
    EXPECT_EQ(networkSpec("CONSTANT").id, "constant");
    // Display names and other spellings are not ids.
    EXPECT_EQ(networkSpec("mesh-2d").displayName, "2D mesh");
    EXPECT_EQ(findNetworkSpec("2D mesh"), nullptr);
    EXPECT_EQ(findNetworkSpec("Fat tree"), nullptr);
    EXPECT_EQ(findNetworkSpec("mesh"), nullptr);
    EXPECT_EQ(findNetworkSpec("token-ring"), nullptr);
    EXPECT_THROW(networkSpec("token-ring"), std::runtime_error);
}

TEST(NetworkRegistry, MakeNetworkDispatchesOnParams)
{
    Params p = Params::base();
    auto constant = makeNetwork(p);
    EXPECT_NE(dynamic_cast<Network *>(constant.get()), nullptr);
    EXPECT_EQ(constant->meanLatency(), p.netLatency);

    p.networkModel = "mesh-2d";
    auto mesh = makeNetwork(p);
    EXPECT_NE(dynamic_cast<MeshNetwork *>(mesh.get()), nullptr);
    EXPECT_EQ(mesh->nodes(), p.numNodes);

    p.networkModel = "fat-tree";
    auto tree = makeNetwork(p);
    EXPECT_NE(dynamic_cast<FatTreeNetwork *>(tree.get()), nullptr);

    p.networkModel = "token-ring";
    EXPECT_THROW(makeNetwork(p), std::runtime_error);
}

TEST(NetworkRegistry, RemoteFetchLatencyMatchesTable2ForConstant)
{
    // The model-derived path must reproduce the historical hardcoded
    // formula exactly under the default (constant) model: Table 2's
    // 376-cycle uncontended remote fetch.
    Params p = Params::base();
    EXPECT_EQ(remoteFetchLatency(p), p.remoteFetch());
    EXPECT_EQ(remoteFetchLatency(p), 376u);
    // Under a topology the wire term becomes the mean pairwise
    // latency instead of the flat netLatency.
    p.networkModel = "mesh-2d";
    const Tick mesh_mean = makeNetwork(p)->meanLatency();
    EXPECT_EQ(remoteFetchLatency(p), p.remoteFetch(mesh_mean));
    EXPECT_NE(remoteFetchLatency(p), 376u);
}

TEST(NetworkRegistry, ValidateRejectsUnEmbeddableGeometry)
{
    Params p = Params::base();
    p.networkModel = "mesh-2d";
    p.numNodes = 7; // prime: no rectangular embedding
    EXPECT_THROW(p.validate(), std::logic_error);
    p.numNodes = 8;
    EXPECT_NO_THROW(p.validate());

    p.networkModel = "fat-tree";
    p.numNodes = 12; // not a power of two
    EXPECT_THROW(p.validate(), std::logic_error);
    p.numNodes = 16;
    EXPECT_NO_THROW(p.validate());

    p.networkModel = "mesh-2d";
    p.numNodes = 8;
    p.hopLatency = 0;
    EXPECT_THROW(p.validate(), std::logic_error);
}

TEST(NetworkRegistry, ConcurrentRegistrationAndLookupIsSafe)
{
    // Same shape as the protocol registry's hammer: writers add
    // fresh specs while readers resolve built-ins and enumerate.
    // Registered test specs stay in the global registry afterwards
    // (specs are never removed), which is harmless: ids are
    // namespaced with a test prefix.
    constexpr int writers = 4;
    constexpr int readers = 4;
    constexpr int perWriter = 8;
    // Ids must be fresh per in-process run (e.g. --gtest_repeat):
    // the registry never forgets and duplicates are fatal.
    static int runSeq = 0;
    const std::string prefix =
        "net-test-race-r" + std::to_string(runSeq++) + "-w";
    std::atomic<bool> go{false};
    std::atomic<int> registered{0};
    std::vector<std::thread> threads;
    for (int w = 0; w < writers; ++w) {
        threads.emplace_back([w, &go, &registered, &prefix] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < perWriter; ++i) {
                NetworkSpec spec;
                spec.id = prefix + std::to_string(w) + "-" +
                    std::to_string(i);
                spec.displayName = "race net";
                spec.description = "concurrency test spec";
                spec.make = [](const Params &p) {
                    return std::unique_ptr<NetworkModel>(
                        std::make_unique<Network>(
                            p.numNodes, p.netLatency,
                            p.niOccupancy));
                };
                NetworkRegistry::global().add(std::move(spec));
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
                if (findNetworkSpec("mesh-2d") == nullptr)
                    readerFailures.fetch_add(1);
                for (const NetworkSpec *s :
                     NetworkRegistry::global().all()) {
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
    for (int w = 0; w < writers; ++w) {
        for (int i = 0; i < perWriter; ++i) {
            EXPECT_NE(findNetworkSpec(prefix + std::to_string(w) +
                                      "-" + std::to_string(i)),
                      nullptr);
        }
    }
}

} // namespace rnuma
