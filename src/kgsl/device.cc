#include "kgsl/device.h"

#include <bit>

#include "util/logging.h"

namespace gpusc::kgsl {

KgslDevice::KgslDevice(gpu::RenderEngine &engine,
                       const SecurityPolicy &policy)
    : engine_(engine), policy_(&policy)
{
}

int
KgslDevice::open(const ProcessContext &proc)
{
    if (!policy_->allowOpen(proc)) {
        notePolicyDenial(proc, "open");
        return -KGSL_EACCES;
    }
    const int fd = nextFd_++;
    OpenFile file{proc, {}};
    // A descriptor belongs to the reset epoch it was opened in; after
    // a GPU hang recovery it turns ENODEV until the process reopens.
    file.epoch = injector_ ? injector_->resetEpoch() : 0;
    files_.emplace(fd, std::move(file));
    return fd;
}

void
KgslDevice::dropReservations(OpenFile &file)
{
    if (injector_ && !file.stale)
        for (std::uint32_t g = 0; g <= kMaxGroupId; ++g)
            for (int n = std::popcount(file.reservations[g]); n > 0; --n)
                injector_->release(g);
    file.reservations.fill(0);
}

int
KgslDevice::close(int fd)
{
    auto it = files_.find(fd);
    if (it == files_.end())
        return -KGSL_EBADF;
    dropReservations(it->second);
    files_.erase(it);
    return 0;
}

std::size_t
KgslDevice::totalReservations() const
{
    std::size_t n = 0;
    for (const auto &[fd, file] : files_)
        for (std::uint32_t word : file.reservations)
            n += std::size_t(std::popcount(word));
    return n;
}

bool
hardwareImplementsCounter(std::uint32_t groupid, std::uint32_t countable)
{
    // Each group's countable space. Real groups have a few dozen
    // countables; we expose a plausible range so the enumeration step
    // of §3.3 has something to iterate over. The ranges hold the
    // selected 11 (KgslHardwareTest.ImplementedCountables), so no
    // counter lookup is needed here. They also bound KgslDevice's
    // reservation bitmask: group <= 0x19, countable < 32.
    switch (groupid) {
      case KGSL_PERFCOUNTER_GROUP_VPC:
        return countable < 24;
      case KGSL_PERFCOUNTER_GROUP_RAS:
        return countable < 12;
      case KGSL_PERFCOUNTER_GROUP_LRZ:
        return countable < 26;
      case KGSL_PERFCOUNTER_GROUP_CP:
      case KGSL_PERFCOUNTER_GROUP_SP:
        return countable < 32;
      default:
        return false;
    }
}

int
KgslDevice::doPerfcounterGet(OpenFile &file, kgsl_perfcounter_get *arg)
{
    if (!arg)
        return -KGSL_EFAULT;
    if (!hardwareImplementsCounter(arg->groupid, arg->countable))
        return -KGSL_EINVAL;
    std::uint32_t &word = file.reservations[arg->groupid];
    const std::uint32_t bit = 1u << arg->countable;
    if (!(word & bit)) {
        // A fresh reservation needs a free physical register in the
        // group (re-GET of a held countable costs nothing, like the
        // refcounted real driver).
        if (injector_ && !injector_->tryReserve(arg->groupid))
            return -KGSL_EBUSY;
        word |= bit;
    }
    // Real driver returns the register offset; any stable nonzero
    // value preserves the calling convention.
    arg->offset = 0x400 + arg->groupid * 0x40 + arg->countable;
    arg->offset_hi = arg->offset + 1;
    return 0;
}

int
KgslDevice::doPerfcounterPut(OpenFile &file, kgsl_perfcounter_put *arg)
{
    if (!arg)
        return -KGSL_EFAULT;
    // Unimplemented pairs were never reserved: nothing to release.
    if (!hardwareImplementsCounter(arg->groupid, arg->countable))
        return 0;
    std::uint32_t &word = file.reservations[arg->groupid];
    const std::uint32_t bit = 1u << arg->countable;
    if ((word & bit) && injector_)
        injector_->release(arg->groupid);
    word &= ~bit;
    return 0;
}

int
KgslDevice::doPerfcounterRead(OpenFile &file, kgsl_perfcounter_read *arg)
{
    if (!arg || (arg->count > 0 && !arg->reads))
        return -KGSL_EFAULT;
    gpu::CounterTotals totals{};
    const ReadVerdict verdict =
        policy_->onCounterRead(file.proc, engine_.clock().now());
    if (verdict == ReadVerdict::Throttle) {
        noteDefenseIntervention(file.proc, /*stale=*/false);
        return -KGSL_EAGAIN;
    }
    if (verdict == ReadVerdict::Stale) {
        if (!policy_->staleTotals(file.proc, totals)) {
            // Over budget before anything was ever served: there is
            // no cache to repeat, so the read degrades to EAGAIN.
            noteDefenseIntervention(file.proc, /*stale=*/false);
            return -KGSL_EAGAIN;
        }
        noteDefenseIntervention(file.proc, /*stale=*/true);
    } else {
        // Values are the *global* cumulative hardware registers —
        // this is the leak: the reading process sees work submitted
        // by every app. The fault injector models what the hardware
        // handed the kernel; the policy transform (quantization,
        // noise) is the kernel-side defense applied on top.
        totals = engine_.readAll();
        if (injector_)
            injector_->transform(totals);
        policy_->transformTotals(file.proc, totals);
    }
    for (std::uint32_t i = 0; i < arg->count; ++i) {
        kgsl_perfcounter_read_group &entry = arg->reads[i];
        if (!hardwareImplementsCounter(entry.groupid, entry.countable))
            return -KGSL_EINVAL;
        if (!(file.reservations[entry.groupid] >> entry.countable & 1))
            return -KGSL_EINVAL; // must PERFCOUNTER_GET first
        const auto sel =
            gpu::selectedFromId({entry.groupid, entry.countable});
        // Countables outside the modelled set read as a constant; the
        // attack never uses them.
        entry.value = sel ? totals[*sel] : 0;
    }
    return 0;
}

void
KgslDevice::setTelemetry(obs::Telemetry *tel)
{
    telemetry_ = tel;
    if (!tel) {
        ioctlTimer_ = obs::StageTimer();
        ioctlCallsCtr_ = ioctlErrorsCtr_ = policyDenialsCtr_ =
            readsThrottledCtr_ = readsStaleCtr_ = nullptr;
        return;
    }
    ioctlTimer_ = obs::StageTimer(tel, "kgsl.ioctl");
    ioctlCallsCtr_ = &tel->metrics.counter("kgsl.ioctl.calls");
    ioctlErrorsCtr_ = &tel->metrics.counter("kgsl.ioctl.errors");
    policyDenialsCtr_ = &tel->metrics.counter("kgsl.policy_denials");
    readsThrottledCtr_ = &tel->metrics.counter("kgsl.reads_throttled");
    readsStaleCtr_ = &tel->metrics.counter("kgsl.reads_stale");
}

void
KgslDevice::noteDefenseIntervention(const ProcessContext &proc,
                                    bool stale)
{
    if (!telemetry_)
        return;
    (stale ? readsStaleCtr_ : readsThrottledCtr_)->inc();
    telemetry_->audit.record(engine_.clock().now(), obs::Stage::Kgsl,
                             stale ? obs::Decision::StaleServed
                                   : obs::Decision::ThrottledRead,
                             proc.seContext);
}

void
KgslDevice::notePolicyDenial(const ProcessContext &proc,
                             const char *what)
{
    ++policyDenials_;
    if (!telemetry_)
        return;
    policyDenialsCtr_->inc();
    // The denied verb and the caller's SELinux domain make defended
    // runs auditable: the label reads e.g. "perfcounter-get
    // untrusted_app".
    telemetry_->audit.record(engine_.clock().now(), obs::Stage::Kgsl,
                             obs::Decision::PolicyDenied,
                             std::string(what) + " " + proc.seContext);
}

int
KgslDevice::ioctl(int fd, unsigned long request, void *arg)
{
    if (!ioctlCallsCtr_)
        return ioctlDispatch(fd, request, arg);
    ioctlCallsCtr_->inc();
    const obs::StageTimer::Scope span =
        ioctlTimer_.scoped(engine_.clock().now());
    const int rc = ioctlDispatch(fd, request, arg);
    if (rc != 0)
        ioctlErrorsCtr_->inc();
    return rc;
}

int
KgslDevice::ioctlDispatch(int fd, unsigned long request, void *arg)
{
    auto it = files_.find(fd);
    if (it == files_.end())
        return -KGSL_EBADF;
    OpenFile &file = it->second;

    ++ioctlCount_;
    if (injector_ && !file.stale &&
        injector_->resetEpoch() > file.epoch) {
        // GPU hang recovery tore the context down: the kernel freed
        // the descriptor's counter registers, and the fd answers
        // ENODEV until the process reopens the device.
        dropReservations(file);
        file.stale = true;
    }
    if (file.stale)
        return -KGSL_ENODEV;
    if (!policy_->allowIoctl(file.proc, request)) {
        notePolicyDenial(file.proc,
                         request == IOCTL_KGSL_PERFCOUNTER_GET
                             ? "perfcounter-get"
                         : request == IOCTL_KGSL_PERFCOUNTER_PUT
                             ? "perfcounter-put"
                         : request == IOCTL_KGSL_PERFCOUNTER_READ
                             ? "perfcounter-read"
                             : "ioctl");
        return -KGSL_EPERM;
    }
    if (injector_ && (request == IOCTL_KGSL_PERFCOUNTER_GET ||
                      request == IOCTL_KGSL_PERFCOUNTER_READ))
        // PUT is exempt: cleanup must stay reliable or every failure
        // path would leak reservations.
        if (int err = injector_->ioctlFault(); err != 0)
            return err;

    if (request == IOCTL_KGSL_PERFCOUNTER_GET)
        return doPerfcounterGet(file,
                                static_cast<kgsl_perfcounter_get *>(arg));
    if (request == IOCTL_KGSL_PERFCOUNTER_PUT)
        return doPerfcounterPut(file,
                                static_cast<kgsl_perfcounter_put *>(arg));
    if (request == IOCTL_KGSL_PERFCOUNTER_READ)
        return doPerfcounterRead(
            file, static_cast<kgsl_perfcounter_read *>(arg));
    return -KGSL_EINVAL;
}

double
KgslDevice::gpuBusyPercentage()
{
    return engine_.busyPercent();
}

} // namespace gpusc::kgsl
