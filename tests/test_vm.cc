/** @file Unit tests for the OS virtual-memory cost model. */

#include <gtest/gtest.h>

#include "common/stats.hh"
#include "os/vm.hh"

namespace rnuma
{

TEST(Vm, MapFaultChargesSoftTrap)
{
    Params p = Params::base();
    RunStats s;
    VmManager vm(p, 0, s);
    EXPECT_EQ(vm.chargeMapFault(1000), 1000 + p.softTrap);
    EXPECT_EQ(s.pageFaults, 1u);
    EXPECT_EQ(s.osCycles, p.softTrap);
}

TEST(Vm, AllocationCostScalesWithFlushedBlocks)
{
    // One charge covers allocation, replacement and relocation: "page
    // relocation uses similar mechanisms as page
    // allocation/replacement and incurs the same overheads"
    // (Section 4).
    Params p = Params::base();
    RunStats s;
    VmManager vm(p, 2, s);
    Tick empty = vm.chargePageOp(0, 0);
    Tick full = vm.chargePageOp(0, p.blocksPerPage());
    EXPECT_EQ(empty, p.pageOpCost(0));
    EXPECT_EQ(full, p.pageOpCost(p.blocksPerPage()));
    EXPECT_GT(full, empty);
    EXPECT_EQ(s.osCycles, empty + full);
    EXPECT_EQ(vm.nodeId(), 2u);
}

TEST(Vm, SoftSystemCostsMore)
{
    // VmManager keeps a reference; the params must outlive it.
    Params base_params = Params::base();
    Params soft_params = Params::soft();
    RunStats s1, s2;
    VmManager base(base_params, 0, s1);
    VmManager soft(soft_params, 0, s2);
    EXPECT_GT(soft.chargePageOp(0, 16),
              base.chargePageOp(0, 16));
}

} // namespace rnuma
