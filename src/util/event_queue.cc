#include "util/event_queue.h"

#include "util/logging.h"

namespace gpusc {

EventId
EventQueue::schedule(SimTime when, Callback fn)
{
    if (when < now_)
        panic("EventQueue: scheduling at %s before now (%s)",
              when.toString().c_str(), now_.toString().c_str());
    std::uint32_t slot;
    if (free_.empty()) {
        slot = std::uint32_t(slots_.size());
        slots_.emplace_back();
    } else {
        slot = free_.back();
        free_.pop_back();
    }
    Slot &s = slots_[slot];
    s.fn = std::move(fn);
    ++pending_;
    queue_.push(Entry{when, nextSeq_++, slot, s.gen});
    return EventId(s.gen) << 32 | slot;
}

EventId
EventQueue::scheduleAfter(SimTime delay, Callback fn)
{
    return schedule(now_ + delay, std::move(fn));
}

EventQueue::Slot *
EventQueue::pendingSlot(EventId id)
{
    const std::uint32_t slot = std::uint32_t(id);
    if (slot >= slots_.size() || slots_[slot].gen != id >> 32)
        return nullptr;
    return &slots_[slot];
}

void
EventQueue::release(std::uint32_t slot)
{
    Slot &s = slots_[slot];
    s.fn = nullptr;
    if (++s.gen == 0)
        s.gen = 1; // keep handle 0 invalid across the wrap
    free_.push_back(slot);
    --pending_;
}

void
EventQueue::cancel(EventId id)
{
    if (pendingSlot(id))
        release(std::uint32_t(id));
}

void
EventQueue::disarm(EventId id)
{
    if (Slot *s = pendingSlot(id))
        s->fn = nullptr;
}

void
EventQueue::skipDead()
{
    while (!queue_.empty() &&
           slots_[queue_.top().slot].gen != queue_.top().gen)
        queue_.pop();
}

SimTime
EventQueue::nextTime()
{
    skipDead();
    return queue_.empty() ? SimTime::max() : queue_.top().when;
}

void
EventQueue::runUntil(SimTime horizon)
{
    for (;;) {
        skipDead();
        if (queue_.empty() || queue_.top().when > horizon)
            break;
        const Entry e = queue_.top();
        queue_.pop();
        // Moved out before the call: the callback may schedule events
        // and so grow (and move) the slot vector under itself.
        Callback fn = std::move(slots_[e.slot].fn);
        release(e.slot);
        now_ = e.when;
        ++dispatched_;
        if (fn)
            fn();
    }
    if (horizon != SimTime::max() && now_ < horizon)
        now_ = horizon;
}

} // namespace gpusc
