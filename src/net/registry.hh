/**
 * @file
 * The network registry: string-keyed, composable interconnect models
 * (a Registry<NetworkSpec>, see common/registry.hh). A NetworkSpec
 * captures a stable id (the JSON/compare/CLI currency), a display
 * name, and a factory from Params to a NetworkModel; the three
 * built-ins are "constant" (the paper's fixed-latency network, the
 * default), "mesh-2d", and "fat-tree". New topologies are one
 * registration away and immediately selectable from the rnuma_sweep
 * CLI (--network, --list-networks) and sweepable by the scaling
 * figure.
 */

#ifndef RNUMA_NET_REGISTRY_HH
#define RNUMA_NET_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>

#include "common/params.hh"
#include "common/registry.hh"
#include "net/network.hh"

namespace rnuma
{

/** Builds the machine-wide interconnect for a run. */
using NetworkFactory =
    std::function<std::unique_ptr<NetworkModel>(const Params &)>;

/** One selectable interconnect model. Value-semantic, like
 * ProtocolSpec: cells copy the id they run under. */
struct NetworkSpec
{
    /**
     * Stable machine-readable id: the JSON artifact / compare-gate /
     * CLI currency ("constant", "mesh-2d", "fat-tree"). Lowercase,
     * no spaces.
     */
    std::string id;
    /** Human-readable name for tables and logs ("2D mesh"). */
    std::string displayName;
    /** One-line description for --list-networks. */
    std::string description;
    /** Required: builds the network model. */
    NetworkFactory make;

    bool valid() const { return !id.empty() && make != nullptr; }

    static constexpr const char *kind = "network";
};

/** The process-wide id -> NetworkSpec table. */
using NetworkRegistry = Registry<NetworkSpec>;

template <>
void NetworkRegistry::addBuiltins(NetworkRegistry &reg);

inline const NetworkSpec &
networkSpec(const std::string &name)
{
    return NetworkRegistry::global().at(name);
}

inline const NetworkSpec *
findNetworkSpec(const std::string &name)
{
    return NetworkRegistry::global().find(name);
}

/**
 * Build the interconnect Params selects (Params::networkModel).
 * Fatal on an unknown id — the single construction point replacing
 * the hand-rolled Network(p.numNodes, p.netLatency, p.niOccupancy)
 * calls that used to be scattered across machine.cc, figures.cc, and
 * the tests.
 */
std::unique_ptr<NetworkModel> makeNetwork(const Params &params);

/**
 * The model-derived uncontended remote fetch latency:
 * Params::remoteFetch(wire) with the wire term taken from the
 * selected model's mean pairwise latency. Equals Params::
 * remoteFetch() (Table 2's 376 cycles) for the constant model; the
 * figure AnalyticModel must use so Eq 1-3 stay consistent with any
 * interconnect.
 */
Tick remoteFetchLatency(const Params &params);

} // namespace rnuma

#endif // RNUMA_NET_REGISTRY_HH
