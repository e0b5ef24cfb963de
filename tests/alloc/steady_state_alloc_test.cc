/**
 * @file
 * Heap allocations per event once the simulator is in steady state.
 *
 * The sampler ticks every 8 ms and the display vsyncs every ~16.7 ms
 * whether or not anything is typed, so these two events dominate a
 * trial's event count; the tests pin that they schedule and dispatch
 * without touching the heap. A recorded trace is that stream of
 * readings, so the trace codec is pinned the same way.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include <unistd.h>

#include "alloc_counter.h"
#include "android/device.h"
#include "attack/eavesdropper.h"
#include "attack/sampler.h"
#include "attack/trainer.h"
#include "trace/trace_reader.h"
#include "trace/trace_writer.h"
#include "util/event_queue.h"

namespace gpusc {
namespace {

using namespace gpusc::sim_literals;
using test::heapAllocations;

/** The sampler tick's shape: `this` plus a generation word. */
struct Ticker
{
    EventQueue &eq;
    SimTime period;
    std::uint64_t gen = 1;
    std::uint64_t ticks = 0;

    void
    tick()
    {
        ++ticks;
        const std::uint64_t g = gen;
        eq.scheduleAfter(period, [this, g] {
            if (gen == g)
                tick();
        });
    }
};

TEST(SteadyStateAllocTest, TickAndVsyncEventsAllocateNothing)
{
    EventQueue eq;
    Ticker sampler{eq, 8_ms};
    Ticker vsync{eq, SimTime::fromNs(16'666'667)};
    sampler.tick();
    vsync.tick();
    // Warm-up: the heap array and the slot vector reach their size.
    eq.runUntil(1_s);
    const std::uint64_t allocs = heapAllocations();
    const std::uint64_t events = eq.dispatched();
    eq.runUntil(11_s);
    EXPECT_GT(eq.dispatched() - events, 1800u);
    EXPECT_EQ(heapAllocations() - allocs, 0u);
}

android::DeviceConfig
quiet()
{
    android::DeviceConfig cfg;
    cfg.notificationMeanInterval = SimTime();
    return cfg;
}

/** Allocations while @p dev runs 10 s of steady state. */
std::uint64_t
steadyStateAllocations(android::Device &dev)
{
    dev.runFor(2_s); // warm-up
    const std::uint64_t allocs = heapAllocations();
    const std::uint64_t events = dev.eq().dispatched();
    const std::uint64_t frames = dev.engine().framesRendered();
    dev.runFor(10_s);
    const std::uint64_t n = dev.eq().dispatched() - events;
    const std::uint64_t a = heapAllocations() - allocs;
    const std::uint64_t f = dev.engine().framesRendered() - frames;
    std::printf("steady state: %llu events, %llu frames, %llu heap "
                "allocations\n",
                (unsigned long long)n, (unsigned long long)f,
                (unsigned long long)a);
    EXPECT_GT(n, 1800u);
    EXPECT_GT(f, 0u);
    return a;
}

TEST(SteadyStateAllocTest, SampledIdleLoginScreenAllocatesNothing)
{
    // The target app's login screen with a blinking cursor, sampled
    // every 8 ms: sampler ticks (counter READ ioctls included),
    // vsyncs and one composited cursor frame per blink.
    android::Device dev(quiet());
    dev.launchTargetApp();
    attack::PcSampler sampler(dev.kgsl(), dev.attackerContext(),
                              dev.eq(), 8_ms);
    std::uint64_t sink = 0;
    sampler.setListener(
        [&sink](const attack::Reading &r) { sink += r.totals[0]; });
    ASSERT_TRUE(sampler.start());
    EXPECT_EQ(steadyStateAllocations(dev), 0u);
    EXPECT_GT(sink, 0u);
}

TEST(SteadyStateAllocTest, EavesdroppedIdleLoginScreen)
{
    // The same screen feeding the full inference pipeline. Reported
    // rather than pinned: inference state is not part of the event
    // contract.
    const attack::SignatureModel model =
        attack::OfflineTrainer().train(quiet());
    android::Device dev(quiet());
    dev.launchTargetApp();
    attack::Eavesdropper spy(dev, model);
    ASSERT_TRUE(spy.start());
    const std::uint64_t a = steadyStateAllocations(dev);
    RecordProperty("allocations", int(a));
}

TEST(SteadyStateAllocTest, TraceCodecAllocatesNothingPerRecord)
{
    constexpr int kWarmUp = 1000;
    constexpr int kMeasured = 19000;
    const std::string path = ::testing::TempDir() + "alloc_codec." +
                             std::to_string(::getpid()) + ".gpct";
    attack::Reading r;
    auto nextReading = [&r](int i) {
        r.time = SimTime::fromMs(8 * i);
        for (std::size_t d = 0; d < r.totals.size(); ++d)
            r.totals[d] += std::uint64_t(i) * (d + 1);
        return r;
    };

    trace::TraceWriter writer;
    ASSERT_EQ(writer.open(path, trace::TraceHeader{}),
              trace::TraceError::None);
    int i = 0;
    for (; i < kWarmUp; ++i)
        ASSERT_EQ(writer.writeReading(nextReading(i)),
                  trace::TraceError::None);
    std::uint64_t allocs = heapAllocations();
    for (; i < kWarmUp + kMeasured; ++i)
        writer.writeReading(nextReading(i));
    const std::uint64_t written = heapAllocations() - allocs;
    ASSERT_EQ(writer.close(), trace::TraceError::None);

    trace::TraceReader reader;
    ASSERT_EQ(reader.open(path), trace::TraceError::None);
    trace::TraceRecord rec;
    bool eof = false;
    for (int k = 0; k < kWarmUp; ++k)
        ASSERT_EQ(reader.next(rec, eof), trace::TraceError::None);
    allocs = heapAllocations();
    std::uint64_t readings = 0;
    for (int k = 0; k < kMeasured; ++k) {
        reader.next(rec, eof);
        readings += !eof && rec.kind == trace::RecordKind::Reading;
    }
    const std::uint64_t read = heapAllocations() - allocs;
    std::remove(path.c_str());

    EXPECT_EQ(readings, std::uint64_t(kMeasured));
    std::printf("trace codec: %.2f allocations per written and %.2f "
                "per read record\n",
                double(written) / kMeasured, double(read) / kMeasured);
    EXPECT_EQ(written, 0u);
    EXPECT_EQ(read, 0u);
}

} // namespace
} // namespace gpusc
