#include "attack/sampler.h"

#include <algorithm>
#include <bit>

#include "kgsl/msm_kgsl.h"

namespace gpusc::attack {

int
openAndReserveCounters(kgsl::KgslDevice &dev,
                       const kgsl::ProcessContext &proc)
{
    const int fd = dev.open(proc);
    if (fd < 0)
        return fd;
    for (std::size_t i = 0; i < gpu::kNumSelectedCounters; ++i) {
        const gpu::CounterId id =
            gpu::counterId(gpu::SelectedCounter(i));
        kgsl::kgsl_perfcounter_get get;
        get.groupid = id.group;
        get.countable = id.countable;
        const int rc =
            dev.ioctl(fd, kgsl::IOCTL_KGSL_PERFCOUNTER_GET, &get);
        if (rc != 0) {
            dev.close(fd);
            return rc;
        }
    }
    return fd;
}

namespace {

constexpr std::uint32_t kAllHeld =
    (1u << gpu::kNumSelectedCounters) - 1;

using ReadEntries = std::array<kgsl::kgsl_perfcounter_read_group,
                               gpu::kNumSelectedCounters>;

} // namespace

bool
PcSampler::readOnce(kgsl::KgslDevice &dev, int fd,
                    gpu::CounterTotals &out)
{
    // READ entries of all selected counters, in SelectedCounter order.
    static const ReadEntries kAll = [] {
        ReadEntries e;
        for (std::size_t i = 0; i < gpu::kNumSelectedCounters; ++i) {
            const gpu::CounterId id =
                gpu::counterId(gpu::SelectedCounter(i));
            e[i].groupid = id.group;
            e[i].countable = id.countable;
        }
        return e;
    }();
    ReadEntries entries = kAll;
    kgsl::kgsl_perfcounter_read req;
    req.reads = entries.data();
    req.count = gpu::kNumSelectedCounters;
    if (dev.ioctl(fd, kgsl::IOCTL_KGSL_PERFCOUNTER_READ, &req) != 0)
        return false;
    for (std::size_t i = 0; i < gpu::kNumSelectedCounters; ++i)
        out[i] = entries[i].value;
    return true;
}

PcSampler::PcSampler(kgsl::KgslDevice &dev, kgsl::ProcessContext proc,
                     EventQueue &eq, SimTime interval,
                     RecoveryParams recovery)
    : dev_(dev), proc_(proc), eq_(eq), interval_(interval),
      recovery_(recovery), paceInterval_(interval)
{
}

PcSampler::~PcSampler()
{
    stop();
}

void
PcSampler::setTelemetry(obs::Telemetry *tel)
{
    telemetry_ = tel;
    if (!tel) {
        tickTimer_ = obs::StageTimer();
        readsOkCtr_ = readsMissedCtr_ = transientRetriesCtr_ =
            busyRetriesCtr_ = reopensCtr_ = watchdogRecoveriesCtr_ =
                throttledReadsCtr_ = paceBackoffsCtr_ =
                    paceRecoveriesCtr_ = nullptr;
        countersHeldGauge_ = nullptr;
        return;
    }
    tickTimer_ = obs::StageTimer(tel, "sampler.tick");
    auto &m = tel->metrics;
    readsOkCtr_ = &m.counter("sampler.reads_ok");
    readsMissedCtr_ = &m.counter("sampler.reads_missed");
    transientRetriesCtr_ = &m.counter("sampler.transient_retries");
    busyRetriesCtr_ = &m.counter("sampler.busy_retries");
    reopensCtr_ = &m.counter("sampler.reopens");
    watchdogRecoveriesCtr_ = &m.counter("sampler.watchdog_recoveries");
    throttledReadsCtr_ = &m.counter("sampler.reads_throttled");
    paceBackoffsCtr_ = &m.counter("sampler.pace_backoffs");
    paceRecoveriesCtr_ = &m.counter("sampler.pace_recoveries");
    countersHeldGauge_ = &m.gauge("sampler.counters_held");
    updateHeldGauge();
}

void
PcSampler::updateHeldGauge()
{
    if (!countersHeldGauge_)
        return;
    countersHeldGauge_->set(double(std::popcount(held_)));
}

int
PcSampler::ioctlRetrying(unsigned long request, void *arg)
{
    // While the pacer is backing off from a rate limiter, inline
    // EAGAIN retries are pure loss: a token bucket refills with time,
    // not attempts, and a penalising one taxes every denied retry.
    // EINTR (a genuinely transient signal) still retries.
    const bool skipEagain =
        recovery_.rateLimitAware && paceInterval_ > interval_;
    int rc = dev_.ioctl(fd_, request, arg);
    for (int attempt = 0;
         (rc == -kgsl::KGSL_EINTR ||
          (rc == -kgsl::KGSL_EAGAIN && !skipEagain)) &&
         attempt < recovery_.maxTransientRetries;
         ++attempt) {
        ++health_.transientRetries;
        if (transientRetriesCtr_)
            transientRetriesCtr_->inc();
        rc = dev_.ioctl(fd_, request, arg);
    }
    return rc;
}

bool
PcSampler::openAndReserve()
{
    const int fd = dev_.open(proc_);
    if (fd < 0) {
        lastErrno_ = -fd;
        return false;
    }
    fd_ = fd;
    held_ = 0;
    std::size_t got = 0;
    for (std::size_t i = 0; i < gpu::kNumSelectedCounters; ++i) {
        const gpu::CounterId id =
            gpu::counterId(gpu::SelectedCounter(i));
        kgsl::kgsl_perfcounter_get get;
        get.groupid = id.group;
        get.countable = id.countable;
        const int rc =
            ioctlRetrying(kgsl::IOCTL_KGSL_PERFCOUNTER_GET, &get);
        if (rc == 0) {
            held_ |= 1u << i;
            ++got;
            continue;
        }
        lastErrno_ = -rc;
        if (rc == -kgsl::KGSL_EBUSY && recovery_.allowDegraded)
            continue; // degraded mode: sample whatever is free
        // Hard failure: closing the descriptor makes the kernel free
        // every partially acquired reservation, so nothing leaks even
        // when a PUT would itself be denied (e.g. RBAC swap).
        dev_.close(fd_);
        fd_ = -1;
        held_ = 0;
        return false;
    }
    if (got == 0) {
        // A run with zero counters observes nothing; fail the attempt
        // (the watchdog retries if we were already running).
        dev_.close(fd_);
        fd_ = -1;
        return false;
    }
    backoff_ = recovery_.busyRetryBase;
    backoffDue_ = eq_.now() + backoff_;
    updateHeldGauge();
    return true;
}

bool
PcSampler::reopenAfterReset()
{
    dev_.close(fd_);
    fd_ = -1;
    held_ = 0;
    if (!openAndReserve())
        return false;
    ++health_.reopens;
    ++health_.resetsSurvived;
    if (reopensCtr_)
        reopensCtr_->inc();
    return true;
}

void
PcSampler::maybeReacquire()
{
    if (held_ == kAllHeld || eq_.now() < backoffDue_)
        return;
    bool still = false;
    for (std::size_t i = 0; i < gpu::kNumSelectedCounters; ++i) {
        if (held_ >> i & 1)
            continue;
        ++health_.busyRetries;
        if (busyRetriesCtr_)
            busyRetriesCtr_->inc();
        const gpu::CounterId id =
            gpu::counterId(gpu::SelectedCounter(i));
        kgsl::kgsl_perfcounter_get get;
        get.groupid = id.group;
        get.countable = id.countable;
        const int rc =
            ioctlRetrying(kgsl::IOCTL_KGSL_PERFCOUNTER_GET, &get);
        if (rc == 0) {
            held_ |= 1u << i;
        } else {
            lastErrno_ = -rc;
            still = true;
        }
    }
    if (still) {
        backoff_ = std::min(backoff_ * 2, recovery_.busyRetryMax);
        backoffDue_ = eq_.now() + backoff_;
    } else {
        backoff_ = recovery_.busyRetryBase;
    }
    updateHeldGauge();
}

void
PcSampler::buildReadEntries()
{
    readCount_ = 0;
    for (std::size_t i = 0; i < gpu::kNumSelectedCounters; ++i) {
        if (!(held_ >> i & 1))
            continue;
        const gpu::CounterId id =
            gpu::counterId(gpu::SelectedCounter(i));
        readEntries_[readCount_].groupid = id.group;
        readEntries_[readCount_].countable = id.countable;
        readSlot_[readCount_] = std::uint8_t(i);
        ++readCount_;
    }
    readMask_ = held_;
}

int
PcSampler::readHeld(gpu::CounterTotals &out)
{
    for (int attempt = 0; attempt < 2; ++attempt) {
        if (held_ != readMask_)
            buildReadEntries();
        const std::uint32_t n = readCount_;
        kgsl::kgsl_perfcounter_read req;
        req.reads = readEntries_;
        req.count = n;
        const int rc =
            n ? ioctlRetrying(kgsl::IOCTL_KGSL_PERFCOUNTER_READ, &req)
              : 0;
        if (rc == 0) {
            for (std::uint32_t j = 0; j < n; ++j)
                lastSeen_[readSlot_[j]] = readEntries_[j].value;
            // Unheld counters repeat their last value: downstream
            // deltas are 0 instead of a bogus backward step.
            out = lastSeen_;
            return 0;
        }
        lastErrno_ = -rc;
        if (rc == -kgsl::KGSL_ENODEV && attempt == 0 &&
            reopenAfterReset())
            continue; // retry the read on the fresh descriptor
        return rc;
    }
    return -kgsl::KGSL_ENODEV;
}

bool
PcSampler::start()
{
    if (running_)
        return true;
    if (!openAndReserve())
        return false;
    running_ = true;
    suspended_ = false;
    paceInterval_ = interval_;
    consecThrottled_ = consecOk_ = 0;
    ++generation_;
    scheduleWatchdog();
    tick();
    return true;
}

void
PcSampler::stop()
{
    // Pending ticks/watchdogs become no-ops that still dispatch.
    ++generation_;
    for (EventId *id : {&tickEvent_, &watchdogEvent_}) {
        if (*id)
            eq_.disarm(*id);
        *id = 0;
    }
    if (fd_ >= 0) {
        dev_.close(fd_);
        fd_ = -1;
    }
    held_ = 0;
    running_ = false;
    suspended_ = false;
    updateHeldGauge();
}

bool
PcSampler::degraded() const
{
    return held_ != kAllHeld;
}

HealthStats
PcSampler::health() const
{
    HealthStats h = health_;
    h.countersHeld = std::uint64_t(std::popcount(held_));
    h.effectiveIntervalNs = std::uint64_t(effectiveInterval().ns());
    return h;
}

void
PcSampler::tick()
{
    if (!running_)
        return;
    const std::uint64_t gen = generation_;
    const obs::StageTimer::Scope tickSpan =
        tickTimer_.scoped(eq_.now());
    maybeReacquire();
    Reading r;
    r.time = eq_.now();
    const int rc = readHeld(r.totals);
    if (rc == 0) {
        ++reads_;
        if (readsOkCtr_)
            readsOkCtr_->inc();
        notePaceSuccess();
        if (tap_)
            tap_(r);
        if (listener_)
            listener_(r);
    } else {
        ++health_.missedReads;
        if (readsMissedCtr_)
            readsMissedCtr_->inc();
        if (rc == -kgsl::KGSL_EAGAIN)
            notePaceThrottle();
        if (rc == -kgsl::KGSL_EPERM || rc == -kgsl::KGSL_EACCES ||
            rc == -kgsl::KGSL_ENODEV) {
            // Hard fault (policy denial, or a reset we could not
            // reopen through): park the chain; the watchdog probes
            // for recovery at a gentler cadence.
            suspended_ = true;
            if (telemetry_)
                telemetry_->audit.record(
                    r.time, obs::Stage::Sampler,
                    obs::Decision::SamplerSuspended);
        }
    }
    // The listener may have called stop()/start() on us.
    if (!running_ || generation_ != gen || suspended_)
        return;
    scheduleNext();
}

void
PcSampler::notePaceThrottle()
{
    ++health_.throttledReads;
    if (throttledReadsCtr_)
        throttledReadsCtr_->inc();
    consecOk_ = 0;
    if (!recovery_.rateLimitAware)
        return;
    if (++consecThrottled_ < recovery_.throttleDetectTicks)
        return;
    consecThrottled_ = 0;
    // Sustained EAGAIN: the driver is rate limiting, not glitching.
    // Stretch the cadence (at least doubling it) and let successful
    // paced ticks probe back down later.
    const SimTime doubled = effectiveInterval() * 2;
    const SimTime next =
        doubled < recovery_.paceMax ? doubled : recovery_.paceMax;
    if (next > paceInterval_) {
        paceInterval_ = next;
        ++health_.paceBackoffs;
        if (paceBackoffsCtr_)
            paceBackoffsCtr_->inc();
    }
}

void
PcSampler::notePaceSuccess()
{
    consecThrottled_ = 0;
    if (!recovery_.rateLimitAware || paceInterval_ <= interval_)
        return;
    if (++consecOk_ < recovery_.paceProbeTicks)
        return;
    consecOk_ = 0;
    // The paced cadence has been clean for a while: probe a faster
    // one. If the limiter pushes back, the next backoff restores it.
    const SimTime halved = paceInterval_ / 2;
    paceInterval_ = halved > interval_ ? halved : interval_;
    ++health_.paceRecoveries;
    if (paceRecoveriesCtr_)
        paceRecoveriesCtr_->inc();
}

void
PcSampler::scheduleNext()
{
    SimTime next = effectiveInterval();
    if (wakeupJitter_)
        next += wakeupJitter_();
    const std::uint64_t gen = generation_;
    tickEvent_ = eq_.scheduleAfter(next, [this, gen] {
        if (generation_ == gen)
            tick();
    });
}

void
PcSampler::scheduleWatchdog()
{
    const std::uint64_t gen = generation_;
    auto probe = [this, gen] {
        if (!running_ || generation_ != gen)
            return;
        watchdogProbe();
        if (running_ && generation_ == gen)
            scheduleWatchdog();
    };
    watchdogEvent_ = eq_.scheduleAfter(recovery_.watchdogInterval, probe);
}

void
PcSampler::watchdogProbe()
{
    if (!suspended_)
        return;
    bool ok;
    if (fd_ < 0) {
        // Still fd-less after a device reset: try a full reopen.
        ok = openAndReserve();
        if (ok) {
            ++health_.reopens;
            ++health_.resetsSurvived;
            if (reopensCtr_)
                reopensCtr_->inc();
        }
    } else {
        // Descriptor intact but reads were denied (RBAC swap): probe
        // whether the device answers again. The probe value is
        // discarded; the resumed tick chain delivers the next one.
        gpu::CounterTotals probe{};
        ok = readHeld(probe) == 0;
    }
    if (ok) {
        suspended_ = false;
        ++health_.watchdogRecoveries;
        if (watchdogRecoveriesCtr_) {
            watchdogRecoveriesCtr_->inc();
            telemetry_->audit.record(eq_.now(), obs::Stage::Sampler,
                                     obs::Decision::SamplerRecovered);
        }
        tick();
    }
}

} // namespace gpusc::attack
