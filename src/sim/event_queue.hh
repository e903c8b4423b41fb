/**
 * @file
 * The discrete-event engine. CPUs are re-scheduled after every shared
 * resource interaction (L1 miss), so all bus, directory, and network
 * activity is processed in global time order; L1 hits are accumulated
 * arithmetically without events.
 *
 * Pop order is strictly (when, seq), i.e. time order with
 * deterministic FIFO tie-breaking. EventQueue is an indexed two-level
 * structure exploiting the simulator's mostly-monotonic small-delta
 * event pattern. A calendar of one-tick FIFO buckets covers the near
 * future [cursor, cursor + window); a hierarchical bitmap over the
 * buckets finds the next non-empty one in a few word operations, so
 * schedule and pop are O(1) in the common case. Events beyond the
 * window (page operations, long barrier jumps) overflow into a
 * min-heap and are merged back in by comparison at pop time, which
 * keeps the (when, seq) order exact even when the same tick holds
 * both calendar and heap events.
 *
 * The plain std::priority_queue reference implementation lives in
 * tests/heap_event_queue.hh: the unit tests assert the two pop
 * bit-identical sequences under randomized schedules, and bench_micro
 * measures the calendar's throughput advantage against it.
 */

#ifndef RNUMA_SIM_EVENT_QUEUE_HH
#define RNUMA_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <queue>
#include <vector>

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

/** Strict (when, seq) order: the one pop order every queue honors. */
inline bool
eventBefore(const Event &a, const Event &b)
{
    if (a.when != b.when)
        return a.when < b.when;
    return a.seq < b.seq;
}

/**
 * The production scheduler: a bitmap-indexed calendar of one-tick
 * FIFO buckets over a far-future min-heap (see the file comment).
 */
class EventQueue
{
  public:
    /**
     * @param window calendar span in ticks (one bucket per tick),
     *        rounded up to a power of two, minimum 64. The default
     *        covers the simulator's common event deltas — think
     *        times, bus and remote-fetch latencies, barrier releases
     *        are all well under 1024 cycles — while the rare
     *        multi-thousand-cycle page operations overflow into the
     *        heap. Kept small on purpose: the bucket array is the
     *        hot working set, and 1024 buckets stay cache-resident
     *        where a wider calendar thrashes. Size it up for
     *        workloads with systematically longer deltas (e.g.
     *        slower networks).
     */
    explicit EventQueue(std::size_t window = 1024);

    /**
     * The window for a workload whose common scheduling deltas are
     * bounded by @p typical_max_delta ticks: the smallest power of
     * two covering the span, clamped to [64, 65536]. Window size
     * never affects pop order — only how often events overflow to
     * the far heap — so auto-sizing is bit-identity-safe by
     * construction. The cap keeps pathological spans (page-op-scale
     * deltas belong in the heap) from inflating the bucket array
     * past the cache-resident sizes the calendar is designed for.
     */
    static std::size_t autoWindow(Tick typical_max_delta);

    /** Calendar span actually in use (post-rounding). */
    std::size_t windowSize() const { return window_; }

    /** Schedule @p tag to run at @p when. */
    void schedule(Tick when, std::uint32_t tag);

    /** Any events pending? */
    bool empty() const { return size_ == 0; }

    /** Pop the earliest event (ties broken by insertion order). */
    Event pop();

    /** Tick of the earliest pending event (queue must not be empty). */
    Tick peekTime() const;

    /** Events processed so far. */
    std::uint64_t processed() const { return popCount_; }

    /** Events currently pending. */
    std::size_t pending() const { return size_; }

  private:
    /** A FIFO of same-tick events, drained from head. */
    struct Bucket
    {
        std::vector<Event> ev;
        std::size_t head = 0;
        bool empty() const { return head == ev.size(); }
    };

    struct Later
    {
        bool
        operator()(const Event &a, const Event &b) const
        {
            return eventBefore(b, a);
        }
    };
    using Heap =
        std::priority_queue<Event, std::vector<Event>, Later>;

    static constexpr std::size_t noHint = ~std::size_t{0};

    /**
     * Index of the first non-empty bucket in circular order from
     * cursor_; only valid when nearCount_ > 0.
     */
    std::size_t nextBucket() const;

    /** Earliest calendar event, or nullptr when the calendar is empty. */
    const Event *nearFront() const;

    std::size_t window_;   ///< calendar span (power of two, >= 64)
    std::size_t bitWords_; ///< window_ / 64
    std::vector<Bucket> near_;        ///< window_ one-tick buckets
    std::vector<std::uint64_t> bits_; ///< non-empty-bucket index
    /**
     * Memo of the earliest non-empty bucket (noHint = recompute).
     * peekTime/pop pairs and runs of same-tick ties then skip the
     * bitmap scan entirely; schedule keeps it coherent by moving it
     * when an earlier event arrives.
     */
    mutable std::size_t hint_ = noHint;
    Heap far_;  ///< events at or beyond cursor_ + window at insert
    Heap past_; ///< events scheduled before cursor_ (API generality;
                ///< the simulator never schedules into the past)
    Tick cursor_ = 0; ///< lower bound of all near/far events
    std::size_t nearCount_ = 0;
    std::size_t size_ = 0;
    std::uint64_t seqCounter_ = 0;
    std::uint64_t popCount_ = 0;
};

} // namespace rnuma

#endif // RNUMA_SIM_EVENT_QUEUE_HH
