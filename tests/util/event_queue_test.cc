/** @file Unit tests for the discrete-event kernel. */

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "event_queue_reference.h"
#include "util/event_queue.h"
#include "util/rng.h"

namespace gpusc {
namespace {

using namespace gpusc::sim_literals;

TEST(EventQueueTest, StartsEmptyAtTimeZero)
{
    EventQueue eq;
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.now().ns(), 0);
    EXPECT_EQ(eq.nextTime(), SimTime::max());
}

TEST(EventQueueTest, DispatchesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30_ms, [&] { order.push_back(3); });
    eq.schedule(10_ms, [&] { order.push_back(1); });
    eq.schedule(20_ms, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30_ms);
}

TEST(EventQueueTest, FifoTieBreaking)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        eq.schedule(10_ms, [&order, i] { order.push_back(i); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime)
{
    EventQueue eq;
    SimTime fired;
    eq.schedule(10_ms, [&] {
        eq.scheduleAfter(5_ms, [&] { fired = eq.now(); });
    });
    eq.run();
    EXPECT_EQ(fired, 15_ms);
}

TEST(EventQueueTest, CancelPreventsDispatch)
{
    EventQueue eq;
    bool fired = false;
    const EventId id = eq.schedule(10_ms, [&] { fired = true; });
    eq.cancel(id);
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.dispatched(), 0u);
}

TEST(EventQueueTest, CancelFiredEventIsNoop)
{
    EventQueue eq;
    const EventId id = eq.schedule(1_ms, [] {});
    eq.run();
    eq.cancel(id); // must not crash or corrupt
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueueTest, RunUntilHorizonLeavesLaterEvents)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10_ms, [&] { ++count; });
    eq.schedule(20_ms, [&] { ++count; });
    eq.runUntil(15_ms);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.now(), 15_ms); // time advances to the horizon
    eq.run();
    EXPECT_EQ(count, 2);
}

TEST(EventQueueTest, EventAtHorizonRuns)
{
    EventQueue eq;
    bool fired = false;
    eq.schedule(10_ms, [&] { fired = true; });
    eq.runUntil(10_ms);
    EXPECT_TRUE(fired);
}

TEST(EventQueueTest, EventsCanScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.scheduleAfter(1_ms, chain);
    };
    eq.scheduleAfter(1_ms, chain);
    eq.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(eq.now(), 10_ms);
}

TEST(EventQueueTest, NextTimeSkipsCancelled)
{
    EventQueue eq;
    const EventId early = eq.schedule(5_ms, [] {});
    eq.schedule(10_ms, [] {});
    eq.cancel(early);
    EXPECT_EQ(eq.nextTime(), 10_ms);
}

TEST(EventQueueTest, DispatchedCounts)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(SimTime::fromMs(i + 1), [] {});
    eq.run();
    EXPECT_EQ(eq.dispatched(), 7u);
}

TEST(EventQueueTest, CancelTwiceIsNoop)
{
    EventQueue eq;
    int fired = 0;
    const EventId a = eq.schedule(1_ms, [&] { ++fired; });
    eq.schedule(2_ms, [&] { ++fired; });
    eq.cancel(a);
    eq.cancel(a);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.dispatched(), 1u);
}

TEST(EventQueueTest, StaleHandleDoesNotCancelItsSlotsNextEvent)
{
    EventQueue eq;
    const EventId first = eq.schedule(1_ms, [] {});
    eq.run();
    // The freed slot is reused; the old handle must not reach it.
    bool fired = false;
    const EventId second = eq.schedule(2_ms, [&] { fired = true; });
    EXPECT_NE(first, second);
    eq.cancel(first);
    eq.cancel(0);
    eq.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueueTest, DisarmedEventDispatchesAsNoop)
{
    EventQueue eq;
    bool fired = false;
    const EventId id = eq.schedule(5_ms, [&] { fired = true; });
    eq.disarm(id);
    EXPECT_FALSE(eq.empty());
    EXPECT_EQ(eq.nextTime(), 5_ms);
    eq.run();
    EXPECT_FALSE(fired);
    EXPECT_EQ(eq.dispatched(), 1u);
    EXPECT_EQ(eq.now(), 5_ms);
    EXPECT_TRUE(eq.empty());
    eq.disarm(id); // fired: no-op
}

/**
 * One side of a differential run: a queue plus a log of the callbacks
 * it ran. Both sides receive the same calls, and each callback's
 * follow-up actions derive from (seed, label) alone, so two queues
 * that dispatch alike also act alike.
 */
template <typename Queue>
struct QueueHarness
{
    explicit QueueHarness(std::uint64_t s) : seed(s) {}

    Queue eq;
    std::uint64_t seed;
    /** Handle and (reference side) disarm flag of each label. */
    std::vector<EventId> ids;
    std::vector<char> disarmed;
    /** (label, time) of every callback that ran, in order. */
    std::vector<std::pair<int, std::int64_t>> log;

    void
    add(SimTime when)
    {
        const int label = int(ids.size());
        ids.push_back(0);
        disarmed.push_back(0);
        ids[std::size_t(label)] =
            eq.schedule(when, [this, label] { fire(label); });
    }

    void cancel(int label) { eq.cancel(ids[std::size_t(label)]); }

    void
    disarm(int label)
    {
        // The reference has no disarm: a disarmed event there is one
        // whose callback returns at once, as the sampler's did.
        if constexpr (std::is_same_v<Queue, EventQueue>)
            eq.disarm(ids[std::size_t(label)]);
        else
            disarmed[std::size_t(label)] = 1;
    }

    void
    fire(int label)
    {
        if (disarmed[std::size_t(label)])
            return;
        log.emplace_back(label, eq.now().ns());
        Rng rng(forkSeed(seed, std::uint64_t(label)));
        // Zero-delay follow-ups land on this very timestamp.
        const double u = rng.uniform();
        const int spawn = u < 0.45 ? 0 : u < 0.85 ? 1 : 2;
        for (int i = 0; i < spawn; ++i)
            add(eq.now() + SimTime::fromMs(rng.uniformInt(0, 3)));
        const int last = int(ids.size()) - 1;
        if (rng.bernoulli(0.3))
            cancel(int(rng.uniformInt(0, last)));
        if (rng.bernoulli(0.1))
            disarm(int(rng.uniformInt(0, last)));
    }
};

/**
 * Seeded random schedules against the reference queue: events at
 * equal timestamps, callbacks that schedule and cancel other events,
 * cancels of pending, fired and already-cancelled events, and
 * disarms. Dispatch order, now(), dispatched(), empty() and
 * nextTime() must agree after every step.
 */
TEST(EventQueueReferenceTest, RandomSchedulesDispatchLikeTheReference)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        SCOPED_TRACE(seed);
        QueueHarness<EventQueue> fast(seed);
        QueueHarness<ref::EventQueue> slow(seed);
        Rng rng(seed);
        for (int step = 0; step < 300; ++step) {
            const std::int64_t op = rng.uniformInt(0, 9);
            const int last = int(fast.ids.size()) - 1;
            if (op < 4 || last < 0) {
                const SimTime when =
                    fast.eq.now() + SimTime::fromMs(rng.uniformInt(0, 20));
                fast.add(when);
                slow.add(when);
            } else if (op == 4 || op == 5) {
                const int label = int(rng.uniformInt(0, last));
                for (int k = 0; k < op - 3; ++k) { // op 5 cancels twice
                    fast.cancel(label);
                    slow.cancel(label);
                }
            } else if (op == 6) {
                const int label = int(rng.uniformInt(0, last));
                fast.disarm(label);
                slow.disarm(label);
            } else if (op == 9) {
                ASSERT_EQ(fast.eq.nextTime(), slow.eq.nextTime());
            } else {
                const SimTime horizon =
                    fast.eq.now() + SimTime::fromMs(rng.uniformInt(0, 15));
                fast.eq.runUntil(horizon);
                slow.eq.runUntil(horizon);
            }
            ASSERT_EQ(fast.log, slow.log);
            ASSERT_EQ(fast.eq.now(), slow.eq.now());
            ASSERT_EQ(fast.eq.dispatched(), slow.eq.dispatched());
            ASSERT_EQ(fast.eq.empty(), slow.eq.empty());
        }
        fast.eq.run();
        slow.eq.run();
        EXPECT_EQ(fast.log, slow.log);
        EXPECT_EQ(fast.eq.now(), slow.eq.now());
        EXPECT_EQ(fast.eq.dispatched(), slow.eq.dispatched());
        EXPECT_TRUE(fast.eq.empty());
        EXPECT_GT(fast.eq.dispatched(), 100u);
    }
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(10_ms, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5_ms, [] {}), "before now");
}

} // namespace
} // namespace gpusc
