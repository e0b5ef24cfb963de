/**
 * @file
 * The attack's periodic performance-counter sampler.
 *
 * Replays the paper's Fig. 10 flow through the simulated device file:
 * open /dev/kgsl-3d0, reserve the 11 selected countables with
 * IOCTL_KGSL_PERFCOUNTER_GET, then blockread them all on a fixed
 * interval (default 8 ms) with IOCTL_KGSL_PERFCOUNTER_READ. Wakeups
 * can be jittered by a caller-supplied delay source to model CPU
 * contention (§7.3).
 *
 * A real driver fights back (see kgsl/fault_injector.h), so the
 * sampler self-heals: transient EINTR/EAGAIN ioctls retry inline,
 * EBUSY reservations fall back to a degraded counter subset and are
 * re-attempted with exponential backoff, ENODEV (device reset)
 * triggers a reopen + re-reserve within the same tick, and a hard
 * fault that halts the tick chain (e.g. an RBAC policy denial) parks
 * the sampler in a suspended state that a slow watchdog probes until
 * the device answers again. Every recovery is accounted in
 * HealthStats.
 */

#ifndef GPUSC_ATTACK_SAMPLER_H
#define GPUSC_ATTACK_SAMPLER_H

#include <array>
#include <functional>

#include "gpu/counters.h"
#include "kgsl/device.h"
#include "obs/telemetry.h"
#include "util/event_queue.h"

namespace gpusc::attack {

/** One sampler tick's observation. */
struct Reading
{
    SimTime time;
    gpu::CounterTotals totals{};
};

/** Knobs of the sampler's self-healing machinery. */
struct RecoveryParams
{
    /** Inline retries of an EINTR/EAGAIN ioctl before giving up. */
    int maxTransientRetries = 8;
    /** First backoff before re-attempting an EBUSY reservation. */
    SimTime busyRetryBase = SimTime::fromMs(16);
    /** Backoff ceiling for EBUSY re-reservation rounds. */
    SimTime busyRetryMax = SimTime::fromMs(1024);
    /** Watchdog cadence; probes for recovery while suspended. */
    SimTime watchdogInterval = SimTime::fromMs(64);
    /** Keep sampling on whatever counter subset was reservable. */
    bool allowDegraded = true;
    /**
     * Robust-attacker mode: detect sustained EAGAIN throttling (a
     * rate-limiting kgsl policy) and *pace* — stretch the effective
     * sampling interval toward the allowed cadence and stop burning
     * inline EAGAIN retries, which a penalising token bucket taxes.
     * Successful paced ticks probe back toward the full rate, so the
     * sampler converges on the fastest cadence the defense serves.
     */
    bool rateLimitAware = false;
    /** Consecutive throttled ticks that trigger one pace backoff. */
    int throttleDetectTicks = 2;
    /** Pacing ceiling (slowest cadence the pacer falls back to). */
    SimTime paceMax = SimTime::fromMs(512);
    /** Successful paced ticks before probing a faster cadence. */
    int paceProbeTicks = 16;
};

/**
 * Counters of the sampler's fault-recovery activity (plus the
 * stream-repair stats the Eavesdropper merges in from its
 * ChangeDetector). All-zero on a fault-free run.
 */
struct HealthStats
{
    /** EINTR/EAGAIN ioctls retried inline. */
    std::uint64_t transientRetries = 0;
    /** EBUSY reservation re-attempts (degraded-mode reacquisition). */
    std::uint64_t busyRetries = 0;
    /** Device reopen cycles (after ENODEV). */
    std::uint64_t reopens = 0;
    /** Device resets survived with sampling resumed. */
    std::uint64_t resetsSurvived = 0;
    /** Times the watchdog revived a suspended tick chain. */
    std::uint64_t watchdogRecoveries = 0;
    /** Ticks that delivered no reading. */
    std::uint64_t missedReads = 0;
    /** Readings dropped to re-baseline (ChangeDetector). */
    std::uint64_t streamResets = 0;
    /** 32-bit wraparounds repaired in-stream (ChangeDetector). */
    std::uint64_t wrapsRepaired = 0;
    /** Counters currently reserved, of gpu::kNumSelectedCounters. */
    std::uint64_t countersHeld = 0;
    /** Reads lost to rate-limit throttling (EAGAIN after retries). */
    std::uint64_t throttledReads = 0;
    /** Pace backoffs (sampling cadence stretched under throttling). */
    std::uint64_t paceBackoffs = 0;
    /** Pace probes back toward full rate after sustained success. */
    std::uint64_t paceRecoveries = 0;
    /** Effective sampling interval, ns (degraded rate surfaced to
     *  the operator; aggregations keep the max across shards). */
    std::uint64_t effectiveIntervalNs = 0;
};

/** Periodic PC reader over the KGSL ioctl interface. */
class PcSampler
{
  public:
    PcSampler(kgsl::KgslDevice &dev, kgsl::ProcessContext proc,
              EventQueue &eq, SimTime interval,
              RecoveryParams recovery = {});
    ~PcSampler();

    PcSampler(const PcSampler &) = delete;
    PcSampler &operator=(const PcSampler &) = delete;

    /** Called with every completed reading. */
    void setListener(std::function<void(const Reading &)> fn)
    {
        listener_ = std::move(fn);
    }

    /**
     * Secondary observer invoked before the listener on every
     * reading. The tap sees exactly the stream the listener consumes,
     * so a trace recorded here replays bit-identically (trace
     * capture, see src/trace/).
     */
    void setTap(std::function<void(const Reading &)> fn)
    {
        tap_ = std::move(fn);
    }

    /** Extra wakeup latency source (CPU-load model). */
    void setWakeupJitter(std::function<SimTime()> fn)
    {
        wakeupJitter_ = std::move(fn);
    }

    /**
     * Attach a telemetry context: per-tick `sampler.tick` spans,
     * read/recovery counters, a counters-held gauge and audit
     * records for suspension/recovery. Observational only — the
     * reading stream is identical with telemetry on or off.
     */
    void setTelemetry(obs::Telemetry *tel);

    /**
     * Open the device file and reserve the counters.
     * @return true on success; false (with lastErrno set) if the
     * security policy denies the attack — the RBAC mitigation path.
     */
    bool start();

    /** Stop sampling and close the descriptor. */
    void stop();

    bool running() const { return running_; }
    SimTime interval() const { return interval_; }

    /** Current tick cadence: interval(), stretched while the pacer
     *  is backing off from a rate-limiting policy. */
    SimTime effectiveInterval() const
    {
        return paceInterval_ > interval_ ? paceInterval_ : interval_;
    }

    std::uint64_t readCount() const { return reads_; }
    int lastErrno() const { return lastErrno_; }

    /** @return true if the tick chain is parked on a hard fault and
     *  only the watchdog is still probing the device. */
    bool suspended() const { return suspended_; }

    /** @return true while holding fewer than all selected counters. */
    bool degraded() const;

    /** Recovery accounting (streamResets/wrapsRepaired stay 0 here;
     *  the Eavesdropper's view merges the ChangeDetector's). */
    HealthStats health() const;

    const RecoveryParams &recovery() const { return recovery_; }

    /** Synchronous single read (used by the offline trainer's bot). */
    static bool readOnce(kgsl::KgslDevice &dev, int fd,
                         gpu::CounterTotals &out);

  private:
    void tick();
    void scheduleNext();
    void scheduleWatchdog();
    void watchdogProbe();
    bool openAndReserve();
    bool reopenAfterReset();
    void maybeReacquire();
    void notePaceThrottle();
    void notePaceSuccess();
    void updateHeldGauge();
    int ioctlRetrying(unsigned long request, void *arg);
    int readHeld(gpu::CounterTotals &out);
    /** Rebuild the READ entries for the counters in held_. */
    void buildReadEntries();

    kgsl::KgslDevice &dev_;
    kgsl::ProcessContext proc_;
    EventQueue &eq_;
    SimTime interval_;
    RecoveryParams recovery_;
    std::function<void(const Reading &)> listener_;
    std::function<void(const Reading &)> tap_;
    std::function<SimTime()> wakeupJitter_;
    int fd_ = -1;
    bool running_ = false;
    bool suspended_ = false;
    std::uint64_t reads_ = 0;
    int lastErrno_ = 0;
    /** Which of the 11 selected counters we hold: bit i = counter i. */
    std::uint32_t held_ = 0;
    /** READ entries for the held counters, rebuilt only when held_
     *  moves off readMask_; readSlot_[j] is entry j's counter. */
    std::uint32_t readMask_ = 0;
    std::uint32_t readCount_ = 0;
    kgsl::kgsl_perfcounter_read_group
        readEntries_[gpu::kNumSelectedCounters];
    std::uint8_t readSlot_[gpu::kNumSelectedCounters] = {};
    /** Last value read per counter; unheld counters repeat theirs so
     *  downstream deltas stay zero instead of going backwards. */
    gpu::CounterTotals lastSeen_{};
    /** Current / next-due EBUSY re-reservation backoff. */
    SimTime backoff_;
    SimTime backoffDue_;
    /** Paced tick cadence (== interval_ when not throttled). */
    SimTime paceInterval_;
    /** Consecutive EAGAIN-missed / successful ticks (pacing). */
    int consecThrottled_ = 0;
    int consecOk_ = 0;
    HealthStats health_;
    obs::Telemetry *telemetry_ = nullptr;
    obs::StageTimer tickTimer_;
    obs::Counter *readsOkCtr_ = nullptr;
    obs::Counter *readsMissedCtr_ = nullptr;
    obs::Counter *transientRetriesCtr_ = nullptr;
    obs::Counter *busyRetriesCtr_ = nullptr;
    obs::Counter *reopensCtr_ = nullptr;
    obs::Counter *watchdogRecoveriesCtr_ = nullptr;
    obs::Counter *throttledReadsCtr_ = nullptr;
    obs::Counter *paceBackoffsCtr_ = nullptr;
    obs::Counter *paceRecoveriesCtr_ = nullptr;
    obs::Gauge *countersHeldGauge_ = nullptr;
    /** Bumped by start()/stop(); pending callbacks from an older
     *  generation are no-ops, making stop/restart cycles safe. */
    std::uint64_t generation_ = 0;
    /** The pending tick and watchdog events. stop() disarms them, so
     *  no event left in the queue calls into a destroyed sampler and
     *  the callbacks need only `this` and a generation. */
    EventId tickEvent_ = 0;
    EventId watchdogEvent_ = 0;
};

/**
 * Open the device and reserve the 11 selected counters.
 * @return the fd, or a negative errno.
 */
int openAndReserveCounters(kgsl::KgslDevice &dev,
                           const kgsl::ProcessContext &proc);

} // namespace gpusc::attack

#endif // GPUSC_ATTACK_SAMPLER_H
