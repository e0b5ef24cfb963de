/**
 * @file
 * Discrete-event simulation kernel.
 *
 * Components schedule callbacks at absolute simulated times; the queue
 * dispatches them in (time, insertion-order) order. This is the only
 * notion of concurrency in the simulator: every hardware and software
 * actor (vsync, GPU frame completion, the attacking application's
 * sampler thread, key press/release timers, cursor blink, ...) is an
 * event.
 */

#ifndef GPUSC_UTIL_EVENT_QUEUE_H
#define GPUSC_UTIL_EVENT_QUEUE_H

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "util/sim_time.h"

namespace gpusc {

/**
 * Handle used to cancel a scheduled event: the callback's slot in the
 * low 32 bits, the slot's generation in the high 32. A slot's
 * generation moves on when its event fires or is cancelled, so a
 * handle outliving its event never names a later one. 0 is never a
 * valid handle.
 */
using EventId = std::uint64_t;

/**
 * Time-ordered event queue with stable FIFO tie-breaking.
 *
 * Callbacks live in a reused slot vector, so a steady-state schedule
 * and dispatch allocates nothing as long as the callable fits
 * std::function's inline buffer (libstdc++: trivially copyable and at
 * most 16 bytes, e.g. a lambda capturing `this` plus one word).
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    /** @return the current simulated time. */
    SimTime now() const { return now_; }

    /**
     * Schedule @p fn to run at absolute time @p when.
     * Scheduling in the past is a simulator bug.
     * @return an id usable with cancel().
     */
    EventId schedule(SimTime when, Callback fn);

    /** Schedule @p fn to run @p delay after now. */
    EventId scheduleAfter(SimTime delay, Callback fn);

    /** Cancel a pending event. Cancelling a fired event is a no-op. */
    void cancel(EventId id);

    /**
     * Drop a pending event's callback but keep the event: it still
     * dispatches (and counts in dispatched()) at its time, running
     * nothing. For owners that die before their events fire. A no-op
     * on a fired or cancelled event.
     */
    void disarm(EventId id);

    /** @return true if no runnable events remain. */
    bool empty() const { return pending_ == 0; }

    /** @return the time of the next runnable event (max() if none). */
    SimTime nextTime();

    /**
     * Run events until the queue is empty or the next event is after
     * @p horizon. Time is left at the later of the last dispatched
     * event and @p horizon (when the horizon is finite).
     */
    void runUntil(SimTime horizon);

    /** Run until the queue drains completely. */
    void run() { runUntil(SimTime::max()); }

    /** Number of events dispatched so far (for tests/diagnostics). */
    std::uint64_t dispatched() const { return dispatched_; }

  private:
    struct Entry
    {
        SimTime when;
        std::uint64_t seq;
        std::uint32_t slot;
        std::uint32_t gen;
        // Ordered so that the priority_queue pops the earliest entry.
        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    struct Slot
    {
        Callback fn;
        /** Generation of the slot's pending event (or of the next one
         *  when free); never 0. */
        std::uint32_t gen = 1;
    };

    /** @return the slot @p id names if its event is still pending. */
    Slot *pendingSlot(EventId id);

    /** Free @p slot and move its generation on (fire or cancel). */
    void release(std::uint32_t slot);

    /** Drop heap tombstones left behind by cancel(). */
    void skipDead();

    SimTime now_;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t dispatched_ = 0;
    std::size_t pending_ = 0;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
    // A cancelled event's heap entry stays behind as a tombstone whose
    // generation no longer matches its slot's.
    std::vector<Slot> slots_;
    std::vector<std::uint32_t> free_;
};

} // namespace gpusc

#endif // GPUSC_UTIL_EVENT_QUEUE_H
