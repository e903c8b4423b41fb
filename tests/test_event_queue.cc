/**
 * @file
 * Unit tests for the discrete-event queue: API behavior, plus a
 * randomized check of every pop against an independent oracle, a
 * linear scan for the (when, seq) minimum over a plain vector.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "sim/event_queue.hh"

namespace rnuma
{

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
    EXPECT_THROW(q.peekTime(), std::logic_error);
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

namespace
{

/**
 * Drive a queue and the oracle with one random operation stream and
 * check every pop: the oracle numbers schedules itself and pops the
 * (when, seq) minimum of its pending vector by linear scan. @p delta
 * gives the next schedule's distance from the last popped tick,
 * @p pop_chance the odds of popping instead of scheduling.
 */
void
checkAgainstOracle(const char *what, std::uint64_t seed, int steps,
                   double pop_chance,
                   const std::function<Tick(Rng &)> &delta)
{
    EventQueue q;
    Rng rng(seed);
    std::vector<Event> pending;
    std::uint64_t scheduled = 0;
    std::uint64_t popped = 0;
    Tick now = 0;
    auto popAndCheck = [&](int step) {
        auto best = std::min_element(
            pending.begin(), pending.end(),
            [](const Event &a, const Event &b) {
                return std::tie(a.when, a.seq) < std::tie(b.when, b.seq);
            });
        ASSERT_EQ(q.peekTime(), best->when) << what << " step " << step;
        Event e = q.pop();
        ASSERT_EQ(e.when, best->when) << what << " step " << step;
        ASSERT_EQ(e.seq, best->seq) << what << " step " << step;
        ASSERT_EQ(e.tag, best->tag) << what << " step " << step;
        pending.erase(best);
        now = e.when;
        popped++;
    };
    for (int step = 0; step < steps; ++step) {
        if (!pending.empty() && rng.chance(pop_chance)) {
            popAndCheck(step);
        } else {
            Tick when = now + delta(rng);
            auto tag = static_cast<std::uint32_t>(rng.below(32));
            q.schedule(when, tag);
            pending.push_back(Event{when, scheduled++, tag});
        }
        ASSERT_EQ(q.pending(), pending.size()) << what;
        ASSERT_EQ(q.processed(), popped) << what;
        if (::testing::Test::HasFatalFailure())
            return;
    }
    while (!pending.empty()) {
        popAndCheck(steps);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    EXPECT_TRUE(q.empty()) << what;
    EXPECT_EQ(q.processed(), scheduled) << what;
}

} // namespace

TEST(EventQueue, RandomizedStreamsMatchALinearScanOracle)
{
    // Simulator-shaped deltas: bursts of think-time/bus-scale steps,
    // fill/fetch latencies, page-operation jumps and exact ties on
    // the current tick.
    checkAgainstOracle("simulator-shaped", 0xeeff01, 20000, 0.45,
                       [](Rng &r) -> Tick {
                           std::uint64_t shape = r.below(100);
                           if (shape < 70)
                               return r.below(16);
                           if (shape < 90)
                               return 60 + r.below(400);
                           if (shape < 97)
                               return 3000 + r.below(9000);
                           return 0;
                       });
    // Mass ties: 2000 events on eight distinct ticks, all scheduled
    // before the first pop, must drain in insertion order per tick.
    checkAgainstOracle("mass ties", 0xabc123, 2000, 0.0,
                       [](Rng &r) -> Tick { return r.below(8) * 7; });
    // Mass ties interleaved with pops: deltas of 0 or one page-op
    // jump, so long runs of equal ticks sit beside far events.
    checkAgainstOracle("interleaved ties", 0x7a11e5, 8000, 0.5,
                       [](Rng &r) -> Tick {
                           return r.chance(0.9) ? 0 : 11500;
                       });
}

} // namespace rnuma
