#include "os/vm.hh"

namespace rnuma
{

VmManager::VmManager(const Params &params, NodeId node_, RunStats &stats_)
    : p(params), node(node_), stats(stats_)
{
}

Tick
VmManager::chargeMapFault(Tick now)
{
    stats.pageFaults++;
    stats.osCycles += p.softTrap;
    return now + p.softTrap;
}

Tick
VmManager::chargePageOp(Tick now, std::size_t blocks)
{
    Tick cost = p.pageOpCost(blocks);
    stats.osCycles += cost;
    return now + cost;
}

} // namespace rnuma
