/** @file Unit tests for the simulated KGSL device file. */

#include <gtest/gtest.h>

#include "gpu/model.h"
#include "gpu/render_engine.h"
#include "kgsl/device.h"
#include "kgsl/fault_injector.h"
#include "kgsl/msm_kgsl.h"
#include "util/event_queue.h"

namespace gpusc::kgsl {
namespace {

using namespace gpusc::sim_literals;

class KgslDeviceTest : public ::testing::Test
{
  protected:
    gfx::FrameScene
    quad()
    {
        gfx::FrameScene s;
        s.damage = gfx::Rect::ofSize(0, 0, 64, 64);
        s.add(s.damage, true, gfx::PrimTag::Background);
        return s;
    }

    int
    openReserved(const ProcessContext &proc = {100, "untrusted_app"})
    {
        const int fd = dev_.open(proc);
        EXPECT_GE(fd, 0);
        kgsl_perfcounter_get get;
        get.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
        get.countable = 18; // VISIBLE_PIXEL
        EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get), 0);
        return fd;
    }

    std::uint64_t
    readPixel(int fd)
    {
        kgsl_perfcounter_read_group entry;
        entry.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
        entry.countable = 18;
        kgsl_perfcounter_read req;
        req.reads = &entry;
        req.count = 1;
        EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &req), 0);
        return entry.value;
    }

    EventQueue eq_;
    gpu::RenderEngine engine_{eq_, gpu::adrenoModel(650), 1};
    StockPolicy stock_;
    KgslDevice dev_{engine_, stock_};
};

TEST_F(KgslDeviceTest, DevicePathMatchesPaper)
{
    EXPECT_STREQ(KgslDevice::path(), "/dev/kgsl-3d0");
}

TEST_F(KgslDeviceTest, OpenCloseLifecycle)
{
    const int fd = dev_.open({100, "untrusted_app"});
    EXPECT_GE(fd, 3);
    EXPECT_EQ(dev_.close(fd), 0);
    EXPECT_EQ(dev_.close(fd), -KGSL_EBADF);
}

TEST_F(KgslDeviceTest, IoctlOnBadFd)
{
    kgsl_perfcounter_get get;
    EXPECT_EQ(dev_.ioctl(999, IOCTL_KGSL_PERFCOUNTER_GET, &get),
              -KGSL_EBADF);
}

TEST_F(KgslDeviceTest, GetUnknownCounterIsEinval)
{
    const int fd = dev_.open({100, "untrusted_app"});
    kgsl_perfcounter_get get;
    get.groupid = 0x55; // no such group
    get.countable = 1;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get),
              -KGSL_EINVAL);
}

TEST_F(KgslDeviceTest, ReadWithoutGetIsEinval)
{
    const int fd = dev_.open({100, "untrusted_app"});
    kgsl_perfcounter_read_group entry;
    entry.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    entry.countable = 18;
    kgsl_perfcounter_read req;
    req.reads = &entry;
    req.count = 1;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &req),
              -KGSL_EINVAL);
}

TEST_F(KgslDeviceTest, NullPointersAreEfault)
{
    const int fd = dev_.open({100, "untrusted_app"});
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, nullptr),
              -KGSL_EFAULT);
    kgsl_perfcounter_read req;
    req.reads = nullptr;
    req.count = 3;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &req),
              -KGSL_EFAULT);
}

TEST_F(KgslDeviceTest, UnknownRequestIsEinval)
{
    const int fd = dev_.open({100, "untrusted_app"});
    int dummy = 0;
    EXPECT_EQ(dev_.ioctl(fd, 0xDEAD, &dummy), -KGSL_EINVAL);
}

TEST_F(KgslDeviceTest, ReadsSeeGlobalGpuWork)
{
    const int fd = openReserved();
    EXPECT_EQ(readPixel(fd), 0u);
    // Work submitted by *other* processes (the UI) is visible — the
    // leak the paper exploits.
    const SimTime end = engine_.submit(quad());
    eq_.runUntil(end + 1_ms);
    EXPECT_EQ(readPixel(fd), 64u * 64u);
}

TEST_F(KgslDeviceTest, GetReturnsRegisterOffsets)
{
    const int fd = dev_.open({100, "untrusted_app"});
    kgsl_perfcounter_get get;
    get.groupid = KGSL_PERFCOUNTER_GROUP_RAS;
    get.countable = 4;
    ASSERT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get), 0);
    EXPECT_NE(get.offset, 0u);
    EXPECT_NE(get.offset_hi, get.offset);
}

TEST_F(KgslDeviceTest, PutReleasesReservation)
{
    const int fd = openReserved();
    kgsl_perfcounter_put put;
    put.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    put.countable = 18;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_PUT, &put), 0);
    // Reading after PUT is rejected again.
    kgsl_perfcounter_read_group entry;
    entry.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    entry.countable = 18;
    kgsl_perfcounter_read req;
    req.reads = &entry;
    req.count = 1;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &req),
              -KGSL_EINVAL);
}

TEST_F(KgslDeviceTest, IoctlCountAccumulates)
{
    const std::uint64_t before = dev_.ioctlCount();
    const int fd = openReserved();
    readPixel(fd);
    readPixel(fd);
    EXPECT_EQ(dev_.ioctlCount(), before + 3); // 1 GET + 2 READ
}

TEST_F(KgslDeviceTest, RbacDeniesUntrustedPerfcounterIoctls)
{
    const RbacPolicy rbac;
    dev_.setPolicy(rbac);
    const int fd = dev_.open({100, "untrusted_app"});
    ASSERT_GE(fd, 0); // rendering path must keep working
    kgsl_perfcounter_get get;
    get.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    get.countable = 18;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get),
              -KGSL_EPERM);
}

TEST_F(KgslDeviceTest, RbacAllowsProfilerRole)
{
    const RbacPolicy rbac;
    dev_.setPolicy(rbac);
    const int fd = dev_.open({50, "gpu_profiler"});
    kgsl_perfcounter_get get;
    get.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    get.countable = 18;
    EXPECT_EQ(dev_.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get), 0);
}

TEST_F(KgslDeviceTest, BusyPercentageNode)
{
    EXPECT_NEAR(dev_.gpuBusyPercentage(), 0.0, 1e-9);
    engine_.submitCompute(100_ms);
    eq_.runUntil(eq_.now() + 50_ms);
    EXPECT_GT(dev_.gpuBusyPercentage(), 50.0);
}

// --- READ behaviour pinned across the reservation bitmask --------

/** GET (@p group, @p countable) on @p fd; @return the ioctl result. */
int
get(KgslDevice &dev, int fd, std::uint32_t group, std::uint32_t countable)
{
    kgsl_perfcounter_get g;
    g.groupid = group;
    g.countable = countable;
    return dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &g);
}

int
put(KgslDevice &dev, int fd, std::uint32_t group, std::uint32_t countable)
{
    kgsl_perfcounter_put p;
    p.groupid = group;
    p.countable = countable;
    return dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_PUT, &p);
}

/** READ @p entries (values preset to a sentinel) on @p fd. */
int
read(KgslDevice &dev, int fd,
     std::vector<kgsl_perfcounter_read_group> &entries)
{
    for (kgsl_perfcounter_read_group &e : entries)
        e.value = 0xABCD;
    kgsl_perfcounter_read req;
    req.reads = entries.data();
    req.count = std::uint32_t(entries.size());
    return dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &req);
}

kgsl_perfcounter_read_group
entry(std::uint32_t group, std::uint32_t countable)
{
    kgsl_perfcounter_read_group e;
    e.groupid = group;
    e.countable = countable;
    return e;
}

TEST_F(KgslDeviceTest, ReadFailsAtTheFirstBadEntryInOrder)
{
    const int fd = openReserved(); // holds LRZ 18
    const SimTime end = engine_.submit(quad());
    eq_.runUntil(end + 1_ms);
    constexpr std::uint32_t kLrz = KGSL_PERFCOUNTER_GROUP_LRZ;
    // An unimplemented entry fails before the unreserved one behind
    // it; entries ahead of it are already filled, later ones are not.
    std::vector<kgsl_perfcounter_read_group> e = {
        entry(kLrz, 18), entry(0xFFFFFFFF, 0xFFFFFFFF), entry(kLrz, 13)};
    EXPECT_EQ(read(dev_, fd, e), -KGSL_EINVAL);
    EXPECT_EQ(e[0].value, 64u * 64u);
    EXPECT_EQ(e[1].value, 0xABCDu);
    EXPECT_EQ(e[2].value, 0xABCDu);
    // Implemented-but-unreserved fails the same way, at its slot.
    e = {entry(kLrz, 18), entry(kLrz, 13), entry(0x55, 1)};
    EXPECT_EQ(read(dev_, fd, e), -KGSL_EINVAL);
    EXPECT_EQ(e[0].value, 64u * 64u);
    EXPECT_EQ(e[1].value, 0xABCDu);
    // Countables past a group's range (and past the mask's 32 bits)
    // are unimplemented, never an out-of-range reservation lookup:
    // 32 and 4096 must not alias the held countable 0's bit.
    ASSERT_EQ(get(dev_, fd, kLrz, 0), 0);
    for (std::uint32_t c : {26u, 31u, 32u, 4096u}) {
        e = {entry(kLrz, c)};
        EXPECT_EQ(read(dev_, fd, e), -KGSL_EINVAL) << c;
        EXPECT_EQ(get(dev_, fd, kLrz, c), -KGSL_EINVAL) << c;
        EXPECT_EQ(put(dev_, fd, kLrz, c), 0) << c;
    }
    EXPECT_EQ(dev_.totalReservations(), 2u);
}

TEST_F(KgslDeviceTest, ReservedUnselectedCountableReadsZero)
{
    const int fd = openReserved();
    ASSERT_EQ(get(dev_, fd, KGSL_PERFCOUNTER_GROUP_CP, 5), 0);
    ASSERT_EQ(get(dev_, fd, KGSL_PERFCOUNTER_GROUP_SP, 31), 0);
    ASSERT_EQ(get(dev_, fd, KGSL_PERFCOUNTER_GROUP_LRZ, 0), 0);
    const SimTime end = engine_.submit(quad());
    eq_.runUntil(end + 1_ms);
    std::vector<kgsl_perfcounter_read_group> e = {
        entry(KGSL_PERFCOUNTER_GROUP_CP, 5),
        entry(KGSL_PERFCOUNTER_GROUP_LRZ, 18),
        entry(KGSL_PERFCOUNTER_GROUP_SP, 31),
        entry(KGSL_PERFCOUNTER_GROUP_LRZ, 0)};
    ASSERT_EQ(read(dev_, fd, e), 0);
    EXPECT_EQ(e[0].value, 0u);
    EXPECT_EQ(e[1].value, 64u * 64u);
    EXPECT_EQ(e[2].value, 0u);
    EXPECT_EQ(e[3].value, 0u);
    EXPECT_EQ(dev_.totalReservations(), 4u);
}

TEST_F(KgslDeviceTest, ReGetThenOnePutReleases)
{
    FaultInjector fi(eq_, FaultPlan{});
    dev_.setFaultInjector(&fi);
    const int fd = dev_.open({100, "untrusted_app"});
    constexpr std::uint32_t kRas = KGSL_PERFCOUNTER_GROUP_RAS;
    ASSERT_EQ(get(dev_, fd, kRas, 4), 0);
    ASSERT_EQ(get(dev_, fd, kRas, 4), 0); // re-GET holds no 2nd register
    EXPECT_EQ(dev_.totalReservations(), 1u);
    EXPECT_EQ(fi.heldRegisters(), 1u);
    EXPECT_EQ(put(dev_, fd, kRas, 4), 0);
    EXPECT_EQ(dev_.totalReservations(), 0u);
    EXPECT_EQ(fi.heldRegisters(), 0u);
    std::vector<kgsl_perfcounter_read_group> e = {entry(kRas, 4)};
    EXPECT_EQ(read(dev_, fd, e), -KGSL_EINVAL);
    // A second PUT of the released countable returns nothing twice.
    EXPECT_EQ(put(dev_, fd, kRas, 4), 0);
    EXPECT_EQ(fi.heldRegisters(), 0u);
    dev_.setFaultInjector(nullptr);
}

/** Reserve every selected counter plus the edges of each group. */
std::size_t
reserveMany(KgslDevice &dev, int fd)
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < gpu::kNumSelectedCounters; ++i) {
        const gpu::CounterId id = gpu::counterId(gpu::SelectedCounter(i));
        EXPECT_EQ(get(dev, fd, id.group, id.countable), 0);
        ++n;
    }
    for (auto [g, c] : {std::pair{KGSL_PERFCOUNTER_GROUP_CP, 0u},
                        std::pair{KGSL_PERFCOUNTER_GROUP_CP, 31u},
                        std::pair{KGSL_PERFCOUNTER_GROUP_SP, 31u},
                        std::pair{KGSL_PERFCOUNTER_GROUP_LRZ, 25u}}) {
        EXPECT_EQ(get(dev, fd, g, c), 0);
        ++n;
    }
    return n;
}

TEST_F(KgslDeviceTest, CloseDropsEveryReservation)
{
    FaultInjector fi(eq_, FaultPlan{});
    dev_.setFaultInjector(&fi);
    const int keep = openReserved();
    const int fd = dev_.open({100, "untrusted_app"});
    const std::size_t n = reserveMany(dev_, fd);
    EXPECT_EQ(dev_.totalReservations(), n + 1);
    EXPECT_EQ(fi.heldRegisters(), std::uint32_t(n + 1));
    EXPECT_EQ(dev_.close(fd), 0);
    // The other descriptor keeps its one reservation and register.
    EXPECT_EQ(dev_.totalReservations(), 1u);
    EXPECT_EQ(fi.heldRegisters(), 1u);
    EXPECT_EQ(readPixel(keep), 0u);
    EXPECT_EQ(dev_.close(keep), 0);
    EXPECT_EQ(fi.heldRegisters(), 0u);
    dev_.setFaultInjector(nullptr);
}

TEST_F(KgslDeviceTest, ResetEpochDropsEveryReservation)
{
    FaultPlan plan;
    plan.deviceResets = {SimTime::fromMs(10)};
    FaultInjector fi(eq_, plan);
    dev_.setFaultInjector(&fi);
    const int fd = dev_.open({100, "untrusted_app"});
    const std::size_t n = reserveMany(dev_, fd);
    EXPECT_EQ(fi.heldRegisters(), std::uint32_t(n));
    eq_.runUntil(20_ms);
    std::vector<kgsl_perfcounter_read_group> e = {
        entry(KGSL_PERFCOUNTER_GROUP_LRZ, 18)};
    EXPECT_EQ(read(dev_, fd, e), -KGSL_ENODEV);
    EXPECT_EQ(dev_.totalReservations(), 0u);
    EXPECT_EQ(fi.heldRegisters(), 0u);
    // Closing the stale fd releases nothing twice.
    EXPECT_EQ(dev_.close(fd), 0);
    EXPECT_EQ(fi.heldRegisters(), 0u);
    dev_.setFaultInjector(nullptr);
}

TEST(KgslHardwareTest, ImplementedCountables)
{
    // All Table 1 selections exist...
    for (std::size_t i = 0; i < gpu::kNumSelectedCounters; ++i) {
        const auto id = gpu::counterId(gpu::SelectedCounter(i));
        EXPECT_TRUE(hardwareImplementsCounter(id.group, id.countable));
    }
    // ...plus neighbouring countables for enumeration, but not
    // arbitrary ids.
    EXPECT_TRUE(
        hardwareImplementsCounter(KGSL_PERFCOUNTER_GROUP_LRZ, 0));
    EXPECT_FALSE(
        hardwareImplementsCounter(KGSL_PERFCOUNTER_GROUP_LRZ, 60));
    EXPECT_FALSE(hardwareImplementsCounter(0x77, 0));
}

TEST(KgslPolicyTelemetryTest, DenialsAreCountedAndAudited)
{
    EventQueue eq;
    gpu::RenderEngine engine{eq, gpu::adrenoModel(650), 1};
    RbacPolicy rbac;
    KgslDevice dev{engine, rbac};
    obs::Telemetry tel;
    dev.setTelemetry(&tel);

    // Open is allowed under RBAC; the perfcounter ioctls are not.
    const int fd = dev.open({100, "untrusted_app"});
    ASSERT_GE(fd, 0);
    kgsl_perfcounter_get get;
    get.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    get.countable = 18;
    EXPECT_EQ(dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get),
              -KGSL_EPERM);
    kgsl_perfcounter_read req;
    req.reads = nullptr;
    req.count = 0;
    EXPECT_EQ(dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_READ, &req),
              -KGSL_EPERM);

    EXPECT_EQ(dev.policyDenialCount(), 2u);
    EXPECT_EQ(tel.metrics.counter("kgsl.policy_denials").value(), 2u);
    EXPECT_EQ(tel.audit.count(obs::Decision::PolicyDenied), 2u);
    const std::vector<obs::AuditRecord> records = tel.audit.snapshot();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].stage, obs::Stage::Kgsl);
    EXPECT_EQ(records[0].label, "perfcounter-get untrusted_app");
    EXPECT_EQ(records[1].label, "perfcounter-read untrusted_app");
    // Policy denials never enter the change funnel.
    EXPECT_EQ(tel.audit.changesAudited(), 0u);
}

TEST(KgslPolicyTelemetryTest, DeniedCallsCountWithoutTelemetryToo)
{
    EventQueue eq;
    gpu::RenderEngine engine{eq, gpu::adrenoModel(650), 1};
    const RbacPolicy rbac({"gpu_profiler"});
    KgslDevice dev{engine, rbac};
    // RBAC never blocks open() — graphics clients keep working.
    const int fd = dev.open({101, "shell"});
    ASSERT_GE(fd, 0);
    EXPECT_EQ(dev.policyDenialCount(), 0u);
    // No telemetry attached: the plain counter still advances.
    kgsl_perfcounter_get get;
    get.groupid = KGSL_PERFCOUNTER_GROUP_LRZ;
    get.countable = 18;
    EXPECT_EQ(dev.ioctl(fd, IOCTL_KGSL_PERFCOUNTER_GET, &get),
              -KGSL_EPERM);
    EXPECT_EQ(dev.policyDenialCount(), 1u);
}

TEST(KgslIoctlCodesTest, EncodingMatchesLinuxLayout)
{
    // _IOWR('\x09', 0x38, struct kgsl_perfcounter_get)
    EXPECT_EQ(IOCTL_KGSL_PERFCOUNTER_GET & 0xff, 0x38u);
    EXPECT_EQ((IOCTL_KGSL_PERFCOUNTER_GET >> 8) & 0xff, 0x09u);
    EXPECT_EQ((IOCTL_KGSL_PERFCOUNTER_GET >> 16) & 0x3fff,
              sizeof(kgsl_perfcounter_get));
    EXPECT_EQ(IOCTL_KGSL_PERFCOUNTER_READ & 0xff, 0x3Bu);
}

} // namespace
} // namespace gpusc::kgsl
