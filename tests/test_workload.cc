/** @file Unit tests for the workload framework and stream builder. */

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "workload/address_space.hh"
#include "workload/synthetic.hh"
#include "workload/workload.hh"

#include "test_util.hh"

namespace rnuma
{

TEST(AddressSpace, PageAlignedBumpAllocation)
{
    AddressSpace as(4096);
    Addr a = as.allocBytes(10);
    Addr b = as.allocBytes(4097);
    Addr c = as.allocPages(2);
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 4096u);
    EXPECT_EQ(c, 3 * 4096u); // 4097 bytes rounded to two pages
    EXPECT_EQ(as.bytesAllocated(), 5 * 4096u);
}

TEST(VectorWorkload, NextAdvancesAndEndsForever)
{
    VectorWorkload wl("t", 2);
    wl.push(0, Ref::mem(64, false, 3));
    wl.push(0, Ref::mem(128, true, 0));
    wl.seal();
    EXPECT_EQ(wl.next(0).addr, 64u);
    EXPECT_EQ(wl.next(0).addr, 128u);
    EXPECT_EQ(wl.next(0).kind, RefKind::End);
    EXPECT_EQ(wl.next(0).kind, RefKind::End); // forever
    EXPECT_EQ(wl.next(1).kind, RefKind::End); // empty stream
}

TEST(VectorWorkload, ResetRewinds)
{
    VectorWorkload wl("t", 1);
    wl.push(0, Ref::mem(64, false, 0));
    wl.seal();
    EXPECT_EQ(wl.next(0).kind, RefKind::Mem);
    EXPECT_EQ(wl.next(0).kind, RefKind::End);
    wl.reset();
    EXPECT_EQ(wl.next(0).kind, RefKind::Mem);
}

TEST(VectorWorkload, BarrierGoesToEveryCpu)
{
    VectorWorkload wl("t", 3);
    wl.pushBarrierAll();
    wl.seal();
    for (CpuId c = 0; c < 3; ++c)
        EXPECT_EQ(wl.next(c).kind, RefKind::Barrier);
}

TEST(VectorWorkload, PushAfterSealPanics)
{
    VectorWorkload wl("t", 1);
    wl.seal();
    EXPECT_THROW(wl.push(0, Ref::barrier()), std::logic_error);
    EXPECT_THROW(wl.seal(), std::logic_error);
}

TEST(VectorWorkload, SizeAndAtIntrospection)
{
    VectorWorkload wl("t", 1);
    wl.push(0, Ref::touchOf(4096));
    wl.seal();
    EXPECT_EQ(wl.size(0), 2u); // touch + end marker
    EXPECT_EQ(wl.at(0, 0).kind, RefKind::InitTouch);
    EXPECT_EQ(wl.at(0, 1).kind, RefKind::End);
    EXPECT_EQ(wl.totalRefs(), 2u);
}

TEST(StreamBuilder, TouchRangeCoversEveryPage)
{
    Params p = test::smallParams();
    StreamBuilder b("t", p, 1);
    Addr base = b.allocPages(3);
    b.touchRange(0, base, 3 * p.pageSize);
    auto wl = b.finish();
    // 3 init touches + end.
    EXPECT_EQ(wl->size(0), 4u);
    EXPECT_EQ(wl->at(0, 0).kind, RefKind::InitTouch);
    EXPECT_EQ(wl->at(0, 2).addr, base + 2 * p.pageSize);
}

TEST(StreamBuilder, TopologyHelpers)
{
    Params p = test::smallParams();
    StreamBuilder b("t", p, 1);
    EXPECT_EQ(b.ncpus(), 4u);
    EXPECT_EQ(b.nnodes(), 2u);
    EXPECT_EQ(b.nodeOf(0), 0u);
    EXPECT_EQ(b.nodeOf(3), 1u);
}

TEST(StreamBuilder, ScaledHelper)
{
    EXPECT_EQ(scaled(100, 1.0), 100u);
    EXPECT_EQ(scaled(100, 0.25), 25u);
    EXPECT_EQ(scaled(3, 0.01), 1u); // never below one
}

TEST(StreamBuilder, ScaledClampsToStructuralMinimum)
{
    // Generators pass the smallest structure their loops need (for
    // example lu's 2x2 block grid), which wins over the scale...
    EXPECT_EQ(scaled(16, 0.01, 2), 2u);
    EXPECT_EQ(scaled(256, 0.001, 32), 32u);
    // ...but never shrinks a large enough value.
    EXPECT_EQ(scaled(16, 1.0, 2), 16u);
    EXPECT_EQ(scaled(16, 0.5, 0), 8u); // min 0 behaves as 1
    // Non-positive and non-finite scales are configuration errors
    // (fatal), not clamps.
    EXPECT_THROW(scaled(16, 0.0), std::runtime_error);
    EXPECT_THROW(scaled(16, -1.0), std::runtime_error);
    EXPECT_THROW(scaled(16, std::numeric_limits<double>::quiet_NaN()),
                 std::runtime_error);
    EXPECT_THROW(scaled(16, std::numeric_limits<double>::infinity()),
                 std::runtime_error);
}

TEST(VectorWorkload, MemRefCountCountsOnlyLoadsAndStores)
{
    VectorWorkload wl("w", 2);
    EXPECT_EQ(wl.memRefCount(), 0u);
    wl.push(0, Ref::touchOf(0));
    wl.pushBarrierAll();
    EXPECT_EQ(wl.memRefCount(), 0u);
    wl.push(0, Ref::mem(0, false, 1));
    wl.push(1, Ref::mem(64, true, 1));
    wl.seal();
    EXPECT_EQ(wl.memRefCount(), 2u);
}

} // namespace rnuma
