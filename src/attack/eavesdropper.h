/**
 * @file
 * The complete attacking application (Online Phase, paper Fig. 4):
 * a background service that samples the GPU counters through the KGSL
 * device file, recognises the device configuration, infers key
 * presses with Algorithm 1, suppresses app-switch intervals, tracks
 * backspace corrections, and reconstructs the typed credential.
 */

#ifndef GPUSC_ATTACK_EAVESDROPPER_H
#define GPUSC_ATTACK_EAVESDROPPER_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "android/device.h"
#include "attack/app_switch_detector.h"
#include "attack/change_detector.h"
#include "attack/correction_tracker.h"
#include "attack/model_store.h"
#include "attack/online_inference.h"
#include "attack/sampler.h"
#include "obs/telemetry.h"
#include "util/stats.h"

namespace gpusc::attack {

/** One entry of the eavesdropping output stream. */
struct StolenEvent
{
    enum class Kind
    {
        Char,     ///< a printable character was typed
        Page,     ///< the keyboard switched page
        Deletion, ///< a backspace removed the previous character
    };
    Kind kind;
    char ch = 0; ///< for Kind::Char
    SimTime time;
};

/** The attacking application. */
class Eavesdropper
{
  public:
    struct Params
    {
        /** Counter sampling interval (§4 default: 8 ms). */
        SimTime samplingInterval = SimTime::fromMs(8);
        /** Algorithm 1 knobs. */
        OnlineInference::Params inference{};
        /** Sampler self-healing knobs (retries, backoff, watchdog). */
        RecoveryParams recovery{};
        /** Disable components for ablation studies. */
        bool appSwitchDetection = true;
        bool correctionTracking = true;
        /** Keep the raw change trace (offline-inference studies). */
        bool recordTrace = false;
        /**
         * Telemetry context (not owned, must outlive the
         * eavesdropper; null = no instrumentation). Propagated to
         * the sampler, change detector and inference stages; purely
         * observational — the inferred output is bit-identical with
         * telemetry on or off.
         */
        obs::Telemetry *telemetry = nullptr;
    };

    /** Attach with a known model (trained for this device config). */
    Eavesdropper(android::Device &device, const SignatureModel &model);
    Eavesdropper(android::Device &device, const SignatureModel &model,
                 Params params);

    /**
     * Attach with a preloaded model store: the device configuration
     * is recognised from the first counter changes (Fig. 4's "device
     * recognition" step).
     */
    Eavesdropper(android::Device &device, const ModelStore &store,
                 Params params);

    /**
     * Detached (replay) mode: no device, no sampler. Readings are
     * injected through feedReading() — the entry point used by
     * trace::TraceReplayer to run recorded counter streams through
     * the identical inference pipeline offline.
     */
    Eavesdropper(const SignatureModel &model, Params params);
    Eavesdropper(const ModelStore &store, Params params);

    ~Eavesdropper();

    /** Start the background service. False if the kernel denies the
     *  counter ioctls (RBAC mitigation). Detached instances have
     *  nothing to start and return true. */
    bool start();
    void stop();

    /**
     * Inject one counter reading, exactly as if the sampler had
     * produced it. Replayed traces flow through the same change
     * detection + inference code as live runs, so outputs are
     * bit-identical for identical reading streams.
     */
    void feedReading(const Reading &r);

    /** Inject readings in order; identical to calling feedReading()
     *  once per element. */
    void feedReadings(std::span<const Reading> rs);

    /** Observe the live sampler stream (trace recording). No-op in
     *  detached mode. */
    void setReadingTap(std::function<void(const Reading &)> fn);

    /** Extra wakeup latency source (CPU contention, §7.3). */
    void setWakeupJitter(std::function<SimTime()> fn);

    /**
     * Observe every inferred key that survives app-switch
     * suppression, i.e. exactly the presses that enter events().
     * Streaming ingest uses this to drive online template adaptation
     * (stream::TemplateUpdater); observational — attaching a listener
     * never changes the inferred output.
     */
    void setAcceptListener(std::function<void(const InferredKey &)> fn)
    {
        acceptListener_ = std::move(fn);
    }

    /**
     * Push lazily-accumulated telemetry (the reading count, batched
     * off the per-reading hot path) into the metric registry, and
     * publish the pipeline's HealthStats: the monotonic fault
     * counters become `health.*` registry counters (incremented by
     * their growth since the previous flush, so the registry tracks
     * the stats exactly) and the level-like fields become gauges
     * (`health.counters_held`, `health.effective_interval_ns`). The
     * live telemetry plane windows these like any other counter,
     * which is what makes e.g. the pace-backoff *rate* SLO-able.
     * Called automatically on stop() and destruction; replay tooling
     * calls it after feeding a stream so exported metrics are exact.
     */
    void flushTelemetry();

    /** Everything stolen so far. */
    const std::vector<StolenEvent> &events() const { return events_; }

    /** Reconstructed text over the whole run (deletions applied). */
    std::string inferredText() const;

    /** Reconstructed text from events within [t0, t1]. */
    std::string inferredTextBetween(SimTime t0, SimTime t1) const;

    /**
     * Current credential-field length decoded from the echo channel.
     * Works even when popups are disabled (§9.1's residual leak: the
     * text length remains inferable).
     */
    int inferredFieldLength() const { return bufferLen_; }
    /** Longest field length ever observed (the credential's length). */
    int maxObservedFieldLength() const { return maxFieldLen_; }

    /**
     * Bytes needed to send the loot home (paper Fig. 4 "send back
     * inferred key presses"; §7.6 claims negligible network traffic —
     * only *results* leave the device, never raw counter streams).
     * Encoding: 1 event byte + 4 timestamp bytes per stolen event.
     */
    std::size_t exfiltrationBytes() const;
    /** Raw bytes the sampler observed (for the traffic comparison). */
    std::size_t rawCounterBytes() const;

    /**
     * Fault-recovery accounting for the whole pipeline: the sampler's
     * retry/reopen/watchdog counters merged with the ChangeDetector's
     * stream repairs. Detached instances report all counters held
     * (there is no device to lose them to).
     */
    HealthStats health() const;

    /** Model actually in use (after recognition, if any). */
    const SignatureModel *activeModel() const { return model_; }

    /** Host-measured per-change inference latency, microseconds
     *  (Fig. 25). */
    const Samples &inferenceLatenciesUs() const { return latencies_; }

    const OnlineInference *inference() const { return inference_.get(); }
    /** Live mode only — detached instances have no sampler. */
    const PcSampler &sampler() const { return *sampler_; }
    const AppSwitchDetector &switchDetector() const
    {
        return switchDetector_;
    }
    const CorrectionTracker *correctionTracker() const
    {
        return correction_.get();
    }
    /** Raw change trace (only when Params::recordTrace). */
    const std::vector<PcChange> &trace() const { return trace_; }
    int lastErrno() const
    {
        return sampler_ ? sampler_->lastErrno() : 0;
    }

  private:
    void onReading(const Reading &r);
    void onChange(const PcChange &c);
    bool tryRecognize(const PcChange &c);
    void adoptModel(const SignatureModel &model);
    void wireStreamRepair();
    void wireTelemetry();

    /** Null in detached (replay) mode. */
    android::Device *device_ = nullptr;
    Params params_;
    const ModelStore *store_ = nullptr;
    const SignatureModel *model_ = nullptr;
    /** Null in detached (replay) mode. */
    std::unique_ptr<PcSampler> sampler_;
    /** Readings injected through feedReading(). */
    std::uint64_t readsFed_ = 0;
    ChangeDetector changes_;
    std::unique_ptr<OnlineInference> inference_;
    AppSwitchDetector switchDetector_;
    std::unique_ptr<CorrectionTracker> correction_;
    std::function<void(const InferredKey &)> acceptListener_;
    std::vector<StolenEvent> events_;
    Samples latencies_;
    std::vector<PcChange> recognitionBuffer_;
    std::vector<PcChange> trace_;
    /** Running estimate of the credential field's length. */
    int bufferLen_ = 0;
    int maxFieldLen_ = 0;

    /** Telemetry handles, resolved once in wireTelemetry(). Counting
     *  every reading is cheap; host-timing every reading is not, so
     *  the change-detect span samples 1 reading in 64. */
    obs::StageTimer changeDetectTimer_;
    obs::StageTimer classifyTimer_;
    obs::Counter *readingsInCtr_ = nullptr;
    obs::Counter *recogChangesCtr_ = nullptr;
    obs::Counter *suppressedCtr_ = nullptr;
    obs::Counter *keysCtr_ = nullptr;
    obs::Counter *pagesCtr_ = nullptr;
    obs::Counter *deletionsCtr_ = nullptr;
    std::uint64_t readingSeq_ = 0;
    std::uint64_t readingsFlushed_ = 0;
    /** HealthStats as of the last flush (counter-delta baseline). */
    HealthStats healthFlushed_;
};

} // namespace gpusc::attack

#endif // GPUSC_ATTACK_EAVESDROPPER_H
