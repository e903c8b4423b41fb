/**
 * @file
 * The discrete-event engine. CPUs are re-scheduled after every shared
 * resource interaction (L1 miss), so all bus, directory, and network
 * activity is processed in global time order; L1 hits are accumulated
 * arithmetically without events.
 *
 * Pop order is strictly (when, seq), i.e. time order with
 * deterministic FIFO tie-breaking. The machine keeps at most one
 * pending event per CPU, so a plain binary heap is all the structure
 * this needs; the queue is header-only so the compiler can inline
 * schedule and pop into Machine::run's loop.
 */

#ifndef RNUMA_SIM_EVENT_QUEUE_HH
#define RNUMA_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace rnuma
{

/** One scheduled event: a CPU resumes at a tick. */
struct Event
{
    Tick when = 0;
    std::uint64_t seq = 0; ///< insertion order: deterministic ties
    std::uint32_t tag = 0; ///< payload (the CPU id)
};

/** Strict (when, seq) order: the one pop order the queue honors. */
inline bool
eventBefore(const Event &a, const Event &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    return a.seq < b.seq;
}

/** A min-heap of events ordered by (when, seq). */
class EventQueue
{
  public:
    /** Schedule @p tag to run at @p when. */
    void
    schedule(Tick when, std::uint32_t tag)
    {
        heap_.push(Event{when, seqCounter_++, tag});
    }

    /** Any events pending? */
    bool empty() const { return heap_.empty(); }

    /** Pop the earliest event (ties broken by insertion order). */
    Event
    pop()
    {
        RNUMA_ASSERT(!heap_.empty(), "pop from empty event queue");
        Event e = heap_.top();
        heap_.pop();
        popCount_++;
        return e;
    }

    /** Tick of the earliest pending event (queue must not be empty). */
    Tick
    peekTime() const
    {
        RNUMA_ASSERT(!heap_.empty(), "peek into empty event queue");
        return heap_.top().when;
    }

    /** Events processed so far. */
    std::uint64_t processed() const { return popCount_; }

    /** Events currently pending. */
    std::size_t pending() const { return heap_.size(); }

  private:
    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return eventBefore(b, a);
        }
    };

    std::priority_queue<Event, std::vector<Event>, Later> heap_;
    std::uint64_t seqCounter_ = 0;
    std::uint64_t popCount_ = 0;
};

} // namespace rnuma

#endif // RNUMA_SIM_EVENT_QUEUE_HH
