/** @file Unit tests for the ioctl-based PC sampler. */

#include <gtest/gtest.h>

#include <memory>

#include "android/device.h"
#include "attack/sampler.h"

namespace gpusc::attack {
namespace {

using namespace gpusc::sim_literals;

android::DeviceConfig
quiet()
{
    android::DeviceConfig cfg;
    cfg.notificationMeanInterval = SimTime();
    return cfg;
}

TEST(SamplerTest, OpenAndReserveSucceedsOnStockPolicy)
{
    android::Device dev(quiet());
    const int fd =
        openAndReserveCounters(dev.kgsl(), dev.attackerContext());
    EXPECT_GE(fd, 0);
    gpu::CounterTotals totals{};
    EXPECT_TRUE(PcSampler::readOnce(dev.kgsl(), fd, totals));
    dev.kgsl().close(fd);
}

TEST(SamplerTest, RbacDeniesReservation)
{
    android::Device dev(quiet());
    const kgsl::RbacPolicy rbac;
    dev.setSecurityPolicy(rbac);
    const int fd =
        openAndReserveCounters(dev.kgsl(), dev.attackerContext());
    EXPECT_LT(fd, 0);
}

TEST(SamplerTest, TicksAtTheConfiguredInterval)
{
    android::Device dev(quiet());
    dev.boot();
    PcSampler sampler(dev.kgsl(), dev.attackerContext(), dev.eq(),
                      8_ms);
    int readings = 0;
    SimTime last;
    sampler.setListener([&](const Reading &r) {
        if (readings > 0) {
            EXPECT_EQ((r.time - last), 8_ms);
        }
        last = r.time;
        ++readings;
    });
    ASSERT_TRUE(sampler.start());
    dev.runFor(100_ms);
    EXPECT_NEAR(readings, 13, 1);
    EXPECT_EQ(sampler.readCount(), std::uint64_t(readings));
}

TEST(SamplerTest, StopHaltsTicks)
{
    android::Device dev(quiet());
    dev.boot();
    PcSampler sampler(dev.kgsl(), dev.attackerContext(), dev.eq(),
                      8_ms);
    ASSERT_TRUE(sampler.start());
    dev.runFor(50_ms);
    const auto count = sampler.readCount();
    sampler.stop();
    dev.runFor(50_ms);
    EXPECT_EQ(sampler.readCount(), count);
    EXPECT_FALSE(sampler.running());
}

TEST(SamplerTest, WakeupJitterDelaysTicks)
{
    android::Device dev(quiet());
    dev.boot();
    PcSampler sampler(dev.kgsl(), dev.attackerContext(), dev.eq(),
                      8_ms);
    sampler.setWakeupJitter([] { return 8_ms; }); // doubles the gap
    int readings = 0;
    sampler.setListener([&](const Reading &) { ++readings; });
    ASSERT_TRUE(sampler.start());
    dev.runFor(160_ms);
    EXPECT_NEAR(readings, 11, 1);
}

TEST(SamplerTest, FailedStartReportsErrno)
{
    android::Device dev(quiet());
    const kgsl::RbacPolicy rbac;
    dev.setSecurityPolicy(rbac);
    PcSampler sampler(dev.kgsl(), dev.attackerContext(), dev.eq(),
                      8_ms);
    EXPECT_FALSE(sampler.start());
    EXPECT_EQ(sampler.lastErrno(), kgsl::KGSL_EPERM);
}

/** Denies PERFCOUNTER_GET from the (n+1)-th call on — models a
 *  policy swap landing in the middle of the reservation loop. */
class DenyAfterNGets : public kgsl::SecurityPolicy
{
  public:
    explicit DenyAfterNGets(int allowed) : allowed_(allowed) {}

    bool
    allowIoctl(const kgsl::ProcessContext &,
               unsigned long request) const override
    {
        if (request != kgsl::IOCTL_KGSL_PERFCOUNTER_GET)
            return true;
        return ++seen_ <= allowed_;
    }

    std::string name() const override { return "deny-after-n"; }

  private:
    int allowed_;
    mutable int seen_ = 0;
};

TEST(SamplerTest, FailedStartReleasesDescriptorAndReservations)
{
    android::Device dev(quiet());
    const DenyAfterNGets policy(4); // fails on the 5th reservation
    dev.setSecurityPolicy(policy);
    const std::size_t openBefore = dev.kgsl().openFileCount();

    PcSampler sampler(dev.kgsl(), dev.attackerContext(), dev.eq(),
                      8_ms);
    EXPECT_FALSE(sampler.start());
    EXPECT_EQ(sampler.lastErrno(), kgsl::KGSL_EPERM);
    // Regression: the aborted start must not leak the fd or the four
    // reservations acquired before the denial.
    EXPECT_EQ(dev.kgsl().openFileCount(), openBefore);
    EXPECT_EQ(dev.kgsl().totalReservations(), 0u);
}

TEST(SamplerTest, StopRestartCyclesKeepOneTickChain)
{
    android::Device dev(quiet());
    dev.boot();
    PcSampler sampler(dev.kgsl(), dev.attackerContext(), dev.eq(),
                      8_ms);
    const std::size_t openBefore = dev.kgsl().openFileCount();

    for (int cycle = 0; cycle < 3; ++cycle) {
        ASSERT_TRUE(sampler.start());
        dev.runFor(40_ms);
        sampler.stop();
        EXPECT_EQ(dev.kgsl().openFileCount(), openBefore);
        EXPECT_EQ(dev.kgsl().totalReservations(), 0u);
        dev.runFor(16_ms);
    }

    // After the cycles a fresh start still ticks exactly once per
    // interval: stale callbacks from older generations must not have
    // survived to double the rate.
    int readings = 0;
    SimTime last;
    sampler.setListener([&](const Reading &r) {
        if (readings > 0) {
            EXPECT_EQ(r.time - last, 8_ms);
        }
        last = r.time;
        ++readings;
    });
    ASSERT_TRUE(sampler.start());
    dev.runFor(80_ms);
    EXPECT_NEAR(readings, 11, 1);
    sampler.stop();
}

TEST(SamplerTest, StoppedOrDestroyedSamplerLeavesNoopEventsBehind)
{
    // A twin device without a sampler dispatches everything else the
    // same, so the difference over a window after stop() or
    // destruction is exactly the sampler's left-over pending tick and
    // watchdog, which still dispatch but run nothing.
    android::Device twin(quiet());
    twin.boot();
    twin.runFor(30_ms);
    const std::uint64_t twinBefore = twin.eq().dispatched();
    twin.runFor(100_ms);
    const std::uint64_t twinWindow = twin.eq().dispatched() - twinBefore;

    for (bool destroy : {false, true}) {
        SCOPED_TRACE(destroy);
        android::Device dev(quiet());
        dev.boot();
        auto sampler = std::make_unique<PcSampler>(
            dev.kgsl(), dev.attackerContext(), dev.eq(), 8_ms);
        int readings = 0;
        sampler->setListener([&](const Reading &) { ++readings; });
        ASSERT_TRUE(sampler->start());
        dev.runFor(30_ms);
        if (destroy)
            sampler.reset();
        else
            sampler->stop();
        const int seen = readings;
        const std::uint64_t before = dev.eq().dispatched();
        dev.runFor(100_ms); // ASan: nothing may call into a dead sampler
        EXPECT_EQ(dev.eq().dispatched() - before, twinWindow + 2);
        EXPECT_EQ(readings, seen);
    }
}

TEST(SamplerTest, MidRunRbacDenialSuspendsThenWatchdogRecovers)
{
    android::Device dev(quiet());
    dev.boot();
    PcSampler sampler(dev.kgsl(), dev.attackerContext(), dev.eq(),
                      8_ms);
    ASSERT_TRUE(sampler.start());
    dev.runFor(50_ms);
    const std::uint64_t before = sampler.readCount();
    EXPECT_GT(before, 0u);

    // RBAC lands mid-session: reads turn EPERM and the tick chain
    // parks instead of spinning.
    const kgsl::RbacPolicy rbac;
    dev.setSecurityPolicy(rbac);
    dev.runFor(200_ms);
    EXPECT_TRUE(sampler.suspended());
    EXPECT_TRUE(sampler.running());
    const std::uint64_t during = sampler.readCount();
    EXPECT_LE(during, before + 1);
    EXPECT_GT(sampler.health().missedReads, 0u);

    // Policy reverts (profiling re-whitelisted): the watchdog notices
    // and revives the tick chain without a restart.
    const kgsl::StockPolicy stock;
    dev.setSecurityPolicy(stock);
    dev.runFor(200_ms);
    EXPECT_FALSE(sampler.suspended());
    EXPECT_GT(sampler.readCount(), during + 10);
    EXPECT_GE(sampler.health().watchdogRecoveries, 1u);
    sampler.stop();
}

TEST(SamplerTest, DegradedStartReacquiresWhenCompetitorExits)
{
    android::Device dev(quiet());
    kgsl::FaultPlan plan;
    plan.groupRegisters[kgsl::KGSL_PERFCOUNTER_GROUP_VPC] = 3;
    plan.competitors.push_back({kgsl::KGSL_PERFCOUNTER_GROUP_VPC, 3,
                                SimTime::fromMs(200)});
    kgsl::FaultInjector injector(dev.eq(), plan);
    dev.kgsl().setFaultInjector(&injector);
    dev.boot();

    PcSampler sampler(dev.kgsl(), dev.attackerContext(), dev.eq(),
                      8_ms);
    ASSERT_TRUE(sampler.start());
    // All three VPC registers are taken: degraded onto the 8 LRZ/RAS
    // counters, still sampling.
    EXPECT_TRUE(sampler.degraded());
    EXPECT_EQ(sampler.health().countersHeld, 8u);
    dev.runFor(60_ms);
    EXPECT_GT(sampler.readCount(), 0u);
    EXPECT_GT(sampler.health().busyRetries, 0u);

    // The competing profiler exits; backoff retries win the registers
    // back and the full counter set is restored.
    dev.runFor(940_ms);
    EXPECT_FALSE(sampler.degraded());
    EXPECT_EQ(sampler.health().countersHeld,
              std::uint64_t(gpu::kNumSelectedCounters));
    sampler.stop();
    dev.kgsl().setFaultInjector(nullptr);
}

TEST(SamplerTest, DeviceResetIsRecoveredWithinTheTick)
{
    android::Device dev(quiet());
    kgsl::FaultPlan plan;
    plan.deviceResets = {SimTime::fromMs(50)};
    kgsl::FaultInjector injector(dev.eq(), plan);
    dev.kgsl().setFaultInjector(&injector);
    dev.boot();

    PcSampler sampler(dev.kgsl(), dev.attackerContext(), dev.eq(),
                      8_ms);
    int readings = 0;
    sampler.setListener([&](const Reading &) { ++readings; });
    ASSERT_TRUE(sampler.start());
    dev.runFor(200_ms);

    // The ENODEV tick reopened + re-reserved and still delivered.
    EXPECT_FALSE(sampler.suspended());
    EXPECT_EQ(sampler.health().reopens, 1u);
    EXPECT_EQ(sampler.health().resetsSurvived, 1u);
    EXPECT_EQ(sampler.health().missedReads, 0u);
    EXPECT_NEAR(readings, 26, 2);
    EXPECT_EQ(injector.stats().deviceResets, 1u);
    sampler.stop();
    dev.kgsl().setFaultInjector(nullptr);
}

TEST(SamplerTest, ReadingsSeeUiRendering)
{
    android::Device dev(quiet());
    dev.boot();
    PcSampler sampler(dev.kgsl(), dev.attackerContext(), dev.eq(),
                      8_ms);
    std::uint64_t lastPrim = 0;
    sampler.setListener([&](const Reading &r) {
        lastPrim = r.totals[gpu::LRZ_VISIBLE_PRIM_AFTER_LRZ];
    });
    ASSERT_TRUE(sampler.start());
    dev.launchTargetApp(); // big redraws
    dev.runFor(300_ms);
    EXPECT_GT(lastPrim, 0u);
}

} // namespace
} // namespace gpusc::attack
