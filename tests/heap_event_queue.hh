/**
 * @file
 * The plain std::priority_queue event queue, kept as the ordering
 * oracle the calendar EventQueue (sim/event_queue.hh) is checked
 * against in test_event_queue.cc, and as the baseline for
 * bench_micro's scheduler-throughput comparison.
 */

#ifndef RNUMA_TESTS_HEAP_EVENT_QUEUE_HH
#define RNUMA_TESTS_HEAP_EVENT_QUEUE_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "common/logging.hh"
#include "sim/event_queue.hh"

namespace rnuma
{
namespace test
{

/** Min-heap event queue with deterministic (when, seq) tie-breaking. */
class HeapEventQueue
{
  public:
    /** Schedule @p tag to run at @p when. */
    void
    schedule(Tick when, std::uint32_t tag)
    {
        heap.push(Event{when, seqCounter++, tag});
    }

    /** Any events pending? */
    bool empty() const { return heap.empty(); }

    /** Pop the earliest event (ties broken by insertion order). */
    Event
    pop()
    {
        RNUMA_ASSERT(!heap.empty(), "pop from empty event queue");
        Event e = heap.top();
        heap.pop();
        popCount++;
        return e;
    }

    /** Tick of the earliest pending event (queue must not be empty). */
    Tick peekTime() const { return heap.top().when; }

    /** Events processed so far. */
    std::uint64_t processed() const { return popCount; }

    /** Events currently pending. */
    std::size_t pending() const { return heap.size(); }

  private:
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return eventBefore(b, a);
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> heap;
    std::uint64_t seqCounter = 0;
    std::uint64_t popCount = 0;
};

} // namespace test
} // namespace rnuma

#endif // RNUMA_TESTS_HEAP_EVENT_QUEUE_HH
