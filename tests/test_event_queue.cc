/**
 * @file
 * Unit tests for the discrete-event queue: API behavior of the
 * production calendar scheduler, plus ordering-parity checks that
 * replay randomized schedules through both the calendar and the
 * HeapEventQueue reference and assert bit-identical pop sequences.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "common/rng.hh"
#include "heap_event_queue.hh"
#include "sim/event_queue.hh"

namespace rnuma
{

using test::HeapEventQueue;

TEST(EventQueue, PopsInTimeOrder)
{
    EventQueue q;
    q.schedule(30, 3);
    q.schedule(10, 1);
    q.schedule(20, 2);
    EXPECT_EQ(q.pop().tag, 1u);
    EXPECT_EQ(q.pop().tag, 2u);
    EXPECT_EQ(q.pop().tag, 3u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue q;
    q.schedule(5, 7);
    q.schedule(5, 8);
    q.schedule(5, 9);
    EXPECT_EQ(q.pop().tag, 7u);
    EXPECT_EQ(q.pop().tag, 8u);
    EXPECT_EQ(q.pop().tag, 9u);
}

TEST(EventQueue, PeekTime)
{
    EventQueue q;
    q.schedule(42, 0);
    q.schedule(7, 1);
    EXPECT_EQ(q.peekTime(), 7u);
    q.pop();
    EXPECT_EQ(q.peekTime(), 42u);
}

TEST(EventQueue, ProcessedAndPendingCounters)
{
    EventQueue q;
    q.schedule(1, 0);
    q.schedule(2, 0);
    EXPECT_EQ(q.pending(), 2u);
    q.pop();
    EXPECT_EQ(q.processed(), 1u);
    EXPECT_EQ(q.pending(), 1u);
}

TEST(EventQueue, PopEmptyPanics)
{
    EventQueue q;
    EXPECT_THROW(q.pop(), std::logic_error);
}

TEST(EventQueue, InterleavedScheduleAndPop)
{
    EventQueue q;
    q.schedule(10, 1);
    Event e = q.pop();
    // Scheduling an earlier event after popping is fine; the queue
    // orders whatever is pending.
    q.schedule(e.when + 5, 2);
    q.schedule(e.when + 1, 3);
    EXPECT_EQ(q.pop().tag, 3u);
    EXPECT_EQ(q.pop().tag, 2u);
}

TEST(EventQueue, SchedulingBeforeTheCursorStillPopsInOrder)
{
    // The simulator never schedules into the past, but the API
    // allows it; such events pop first, in (when, seq) order.
    EventQueue q;
    q.schedule(100, 1);
    EXPECT_EQ(q.pop().when, 100u);
    q.schedule(50, 2);
    q.schedule(5, 3);
    q.schedule(100, 4);
    q.schedule(50, 5);
    EXPECT_EQ(q.pop().tag, 3u); // t=5
    EXPECT_EQ(q.pop().tag, 2u); // t=50, first inserted
    EXPECT_EQ(q.pop().tag, 5u); // t=50, second inserted
    EXPECT_EQ(q.pop().tag, 4u); // t=100
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, FarAndNearEventsAtTheSameTickKeepFifoOrder)
{
    // tag 1 lands beyond the calendar window (far heap); after the
    // cursor advances, tag 2 at the *same tick* lands in the
    // calendar. FIFO tie-break must still pop 1 before 2.
    EventQueue q;
    q.schedule(10000, 1); // cursor 0: far
    q.schedule(7000, 9);
    EXPECT_EQ(q.pop().tag, 9u); // cursor -> 7000
    q.schedule(10000, 2);       // now within the window: near
    q.schedule(10000, 3);
    EXPECT_EQ(q.pop().tag, 1u);
    EXPECT_EQ(q.pop().tag, 2u);
    EXPECT_EQ(q.pop().tag, 3u);
}

TEST(EventQueue, LongJumpsCrossTheCalendarWindow)
{
    // Page-operation-sized deltas overflow the near window; the far
    // heap hands them back in order, including exact window edges.
    EventQueue q;
    q.schedule(0, 0);
    q.schedule(1023, 1);  // last near bucket
    q.schedule(1024, 2);  // first far tick
    q.schedule(11500, 3); // a full page-op jump
    for (std::uint32_t want = 0; want < 4; ++want)
        EXPECT_EQ(q.pop().tag, want);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueParity, RandomizedStreamsMatchTheHeapReference)
{
    // Replay an event pattern shaped like the simulator's (bursts of
    // small deltas, occasional barrier- and page-op-sized jumps,
    // same-tick ties) through both queues; the pop sequences must be
    // bit-identical, including seq numbers.
    Rng rng(0xeeff01);
    EventQueue cal;
    HeapEventQueue heap;
    Tick now = 0;
    std::size_t pendingCount = 0;
    for (int step = 0; step < 20000; ++step) {
        bool doSchedule =
            pendingCount == 0 || rng.chance(0.55);
        if (doSchedule) {
            Tick delta;
            std::uint64_t shape = rng.below(100);
            if (shape < 70)
                delta = rng.below(16); // think-time / bus scale
            else if (shape < 90)
                delta = 60 + rng.below(400); // fill / fetch scale
            else if (shape < 97)
                delta = 3000 + rng.below(9000); // page ops
            else
                delta = 0; // exact tie on `now`
            std::uint32_t tag =
                static_cast<std::uint32_t>(rng.below(32));
            cal.schedule(now + delta, tag);
            heap.schedule(now + delta, tag);
            pendingCount++;
        } else {
            ASSERT_EQ(cal.peekTime(), heap.peekTime());
            Event a = cal.pop();
            Event b = heap.pop();
            ASSERT_EQ(a.when, b.when) << "step " << step;
            ASSERT_EQ(a.seq, b.seq) << "step " << step;
            ASSERT_EQ(a.tag, b.tag) << "step " << step;
            now = a.when;
            pendingCount--;
        }
        ASSERT_EQ(cal.pending(), heap.pending());
    }
    while (!cal.empty()) {
        Event a = cal.pop();
        Event b = heap.pop();
        ASSERT_EQ(a.when, b.when);
        ASSERT_EQ(a.seq, b.seq);
        ASSERT_EQ(a.tag, b.tag);
    }
    EXPECT_TRUE(heap.empty());
    EXPECT_EQ(cal.processed(), heap.processed());
}

TEST(EventQueue, WindowRoundsUpToAPowerOfTwo)
{
    EXPECT_EQ(EventQueue().windowSize(), 1024u);
    EXPECT_EQ(EventQueue(1024).windowSize(), 1024u);
    EXPECT_EQ(EventQueue(100).windowSize(), 128u);
    EXPECT_EQ(EventQueue(1).windowSize(), 64u);   // floor: one word
    EXPECT_EQ(EventQueue(65).windowSize(), 128u);
    EXPECT_EQ(EventQueue(4096).windowSize(), 4096u);
    EXPECT_THROW(EventQueue(0), std::logic_error);
    // Absurd spans are a config error, not an overflowing loop.
    EXPECT_THROW(EventQueue(~std::size_t{0}), std::logic_error);
}

TEST(EventQueueParity, NonDefaultWindowsMatchTheHeapReference)
{
    // The same randomized simulator-shaped stream as above, but with
    // calendars small enough that fill/fetch deltas overflow into
    // the far heap constantly (64) and wide enough that page ops fit
    // the calendar (16384): the (when, seq) contract must hold at
    // any window size.
    for (std::size_t window : {64u, 256u, 16384u}) {
        Rng rng(0xeeff02 + window);
        EventQueue cal(window);
        HeapEventQueue heap;
        Tick now = 0;
        std::size_t pendingCount = 0;
        for (int step = 0; step < 8000; ++step) {
            bool doSchedule =
                pendingCount == 0 || rng.chance(0.55);
            if (doSchedule) {
                Tick delta;
                std::uint64_t shape = rng.below(100);
                if (shape < 70)
                    delta = rng.below(16);
                else if (shape < 90)
                    delta = 60 + rng.below(400);
                else if (shape < 97)
                    delta = 3000 + rng.below(9000);
                else
                    delta = 0;
                std::uint32_t tag =
                    static_cast<std::uint32_t>(rng.below(32));
                cal.schedule(now + delta, tag);
                heap.schedule(now + delta, tag);
                pendingCount++;
            } else {
                ASSERT_EQ(cal.peekTime(), heap.peekTime())
                    << "window " << window << " step " << step;
                Event a = cal.pop();
                Event b = heap.pop();
                ASSERT_EQ(a.when, b.when)
                    << "window " << window << " step " << step;
                ASSERT_EQ(a.seq, b.seq)
                    << "window " << window << " step " << step;
                ASSERT_EQ(a.tag, b.tag)
                    << "window " << window << " step " << step;
                now = a.when;
                pendingCount--;
            }
        }
        while (!cal.empty()) {
            Event a = cal.pop();
            Event b = heap.pop();
            ASSERT_EQ(a.when, b.when) << "window " << window;
            ASSERT_EQ(a.seq, b.seq) << "window " << window;
            ASSERT_EQ(a.tag, b.tag) << "window " << window;
        }
        EXPECT_TRUE(heap.empty()) << "window " << window;
    }
}

TEST(EventQueue, AutoWindowCoversTheSpanWithinTheClamp)
{
    // The machine sizes its calendar from the workload's tick span
    // (maxThink + the longest common service chain). The policy:
    // smallest power of two covering the span, clamped to
    // [64, 65536]. Window size never affects pop order, so these
    // pins guard the sizing itself, not correctness.
    EXPECT_EQ(EventQueue::autoWindow(0), 64u);
    EXPECT_EQ(EventQueue::autoWindow(63), 64u);
    EXPECT_EQ(EventQueue::autoWindow(64), 128u);
    EXPECT_EQ(EventQueue::autoWindow(500), 512u);
    // The paper's base machine: maxThink + remoteFetch(376) +
    // barrierCost(100) = 476 fits in a 512 window — half the 1024
    // the queue used to default to.
    EXPECT_EQ(EventQueue::autoWindow(476), 512u);
    EXPECT_EQ(EventQueue::autoWindow(1000), 1024u);
    EXPECT_EQ(EventQueue::autoWindow(40000), 65536u);
    // Page-op-scale spans hit the cap instead of inflating the
    // bucket array.
    EXPECT_EQ(EventQueue::autoWindow(~Tick{0}), 65536u);
    // The result is always directly constructible.
    for (Tick d : {Tick{0}, Tick{1000}, Tick{70000}})
        EXPECT_EQ(EventQueue(EventQueue::autoWindow(d)).windowSize(),
                  EventQueue::autoWindow(d));
}

TEST(EventQueueParity, RandomizedSpansMatchTheHeapReference)
{
    // The auto-sizing logic means production calendars can now have
    // any power-of-two span, not just the defaults; replay the
    // simulator-shaped stream at ~20 randomized window requests
    // (1 .. ~128k ticks, rounded up inside the queue) and hold the
    // (when, seq) contract at every one.
    Rng windowRng(0x5eed5);
    for (int trial = 0; trial < 20; ++trial) {
        std::size_t want = static_cast<std::size_t>(
            1 + windowRng.below(131072));
        EventQueue cal(want);
        HeapEventQueue heap;
        Rng rng(0xfeed00 + trial);
        Tick now = 0;
        std::size_t pendingCount = 0;
        for (int step = 0; step < 4000; ++step) {
            bool doSchedule =
                pendingCount == 0 || rng.chance(0.55);
            if (doSchedule) {
                Tick delta;
                std::uint64_t shape = rng.below(100);
                if (shape < 70)
                    delta = rng.below(16);
                else if (shape < 90)
                    delta = 60 + rng.below(400);
                else if (shape < 97)
                    delta = 3000 + rng.below(9000);
                else
                    delta = 0;
                std::uint32_t tag =
                    static_cast<std::uint32_t>(rng.below(32));
                cal.schedule(now + delta, tag);
                heap.schedule(now + delta, tag);
                pendingCount++;
            } else {
                ASSERT_EQ(cal.peekTime(), heap.peekTime())
                    << "window " << want << " step " << step;
                Event a = cal.pop();
                Event b = heap.pop();
                ASSERT_EQ(a.when, b.when)
                    << "window " << want << " step " << step;
                ASSERT_EQ(a.seq, b.seq)
                    << "window " << want << " step " << step;
                ASSERT_EQ(a.tag, b.tag)
                    << "window " << want << " step " << step;
                now = a.when;
                pendingCount--;
            }
        }
        while (!cal.empty()) {
            Event a = cal.pop();
            Event b = heap.pop();
            ASSERT_EQ(a.when, b.when) << "window " << want;
            ASSERT_EQ(a.seq, b.seq) << "window " << want;
            ASSERT_EQ(a.tag, b.tag) << "window " << want;
        }
        EXPECT_TRUE(heap.empty()) << "window " << want;
    }
}

TEST(EventQueueParity, MassTiesPreserveInsertionOrder)
{
    // Many events on few distinct ticks: the FIFO-per-bucket path.
    EventQueue cal;
    HeapEventQueue heap;
    Rng rng(0xabc123);
    for (int i = 0; i < 2000; ++i) {
        Tick when = rng.below(8) * 7;
        std::uint32_t tag = static_cast<std::uint32_t>(i);
        cal.schedule(when, tag);
        heap.schedule(when, tag);
    }
    std::uint32_t prevTag = 0;
    Tick prevWhen = 0;
    bool first = true;
    while (!heap.empty()) {
        Event a = cal.pop();
        Event b = heap.pop();
        ASSERT_EQ(a.seq, b.seq);
        ASSERT_EQ(a.tag, b.tag);
        if (!first && a.when == prevWhen) {
            ASSERT_LT(prevTag, a.tag); // tags are insertion order
        }
        prevWhen = a.when;
        prevTag = a.tag;
        first = false;
    }
    EXPECT_TRUE(cal.empty());
}

} // namespace rnuma
