/**
 * @file
 * The reference the event-queue tests compare gpusc::EventQueue
 * against.
 *
 * This is the queue the simulator ran before callbacks moved into a
 * reused slot vector: a priority_queue of (time, seq, id) entries and
 * one unordered_map node per pending callback, with never-reused
 * ids. Keep it boring — its dispatch order, clock and counts ARE the
 * contract.
 */

#ifndef GPUSC_TESTS_UTIL_EVENT_QUEUE_REFERENCE_H
#define GPUSC_TESTS_UTIL_EVENT_QUEUE_REFERENCE_H

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "util/event_queue.h"
#include "util/sim_time.h"

namespace gpusc::ref {

/** EventQueue with a callback map keyed on never-reused ids. */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    SimTime now() const { return now_; }

    EventId
    schedule(SimTime when, Callback fn)
    {
        const EventId id = nextId_++;
        queue_.push(Entry{when, nextSeq_++, id});
        callbacks_.emplace(id, std::move(fn));
        return id;
    }

    EventId
    scheduleAfter(SimTime delay, Callback fn)
    {
        return schedule(now_ + delay, std::move(fn));
    }

    void cancel(EventId id) { callbacks_.erase(id); }

    bool empty() const { return callbacks_.empty(); }

    SimTime
    nextTime()
    {
        skipDead();
        return queue_.empty() ? SimTime::max() : queue_.top().when;
    }

    void
    runUntil(SimTime horizon)
    {
        for (;;) {
            skipDead();
            if (queue_.empty() || queue_.top().when > horizon)
                break;
            Entry e = queue_.top();
            queue_.pop();
            auto it = callbacks_.find(e.id);
            Callback fn = std::move(it->second);
            callbacks_.erase(it);
            now_ = e.when;
            ++dispatched_;
            fn();
        }
        if (horizon != SimTime::max() && now_ < horizon)
            now_ = horizon;
    }

    void run() { runUntil(SimTime::max()); }

    std::uint64_t dispatched() const { return dispatched_; }

  private:
    struct Entry
    {
        SimTime when;
        std::uint64_t seq;
        EventId id;
        bool
        operator>(const Entry &o) const
        {
            if (when != o.when)
                return when > o.when;
            return seq > o.seq;
        }
    };

    void
    skipDead()
    {
        while (!queue_.empty() && !callbacks_.contains(queue_.top().id))
            queue_.pop();
    }

    SimTime now_;
    std::uint64_t nextSeq_ = 0;
    EventId nextId_ = 1;
    std::uint64_t dispatched_ = 0;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> queue_;
    std::unordered_map<EventId, Callback> callbacks_;
};

} // namespace gpusc::ref

#endif // GPUSC_TESTS_UTIL_EVENT_QUEUE_REFERENCE_H
