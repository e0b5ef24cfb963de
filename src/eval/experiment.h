/**
 * @file
 * End-to-end experiment runner: assemble a victim device, train (or
 * fetch) the signature model, attach the eavesdropper, replay
 * credential inputs with a typing model, and score inferred vs truth.
 * Every accuracy figure in the paper's §7 is a parameterisation of
 * this loop.
 */

#ifndef GPUSC_EVAL_EXPERIMENT_H
#define GPUSC_EVAL_EXPERIMENT_H

#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "android/device.h"
#include "attack/eavesdropper.h"
#include "attack/model_store.h"
#include "eval/metrics.h"
#include "kgsl/defense.h"
#include "trace/trace_writer.h"
#include "workload/credential.h"
#include "workload/load.h"
#include "workload/typing_model.h"
#include "workload/typist.h"

namespace gpusc::eval {

/** Everything a §7-style accuracy experiment can vary. */
struct ExperimentConfig
{
    android::DeviceConfig device;
    /** Typing behaviour: a speed band, or a volunteer profile. */
    workload::TypingSpeed speed = workload::TypingSpeed::Mixed;
    int volunteer = -1; ///< >=0 selects a volunteer profile
    double typoProb = 0.0;
    /** Character mix of generated credentials. */
    workload::CharsetMix charset{};
    /** Attack knobs. */
    attack::Eavesdropper::Params attackParams{};
    /** Concurrent workloads (§7.3), 0..1 utilisation. */
    double cpuLoad = 0.0;
    double gpuLoad = 0.0;
    /**
     * Driver hostility (kgsl::FaultInjector): transient errnos,
     * scarce counter registers, power collapses, 32-bit wraparound,
     * device resets. Default-constructed = no faults. Only the victim
     * device is affected; the offline trainer's bot device runs
     * fault-free (the paper trains in the attacker's lab).
     */
    kgsl::FaultPlan faultPlan{};
    /**
     * Counter-degrading kgsl defense stack (kgsl::DefendedPolicy):
     * RBAC gate, read rate limiting, value quantization, noise
     * injection. Default-constructed = stock driver. Only the victim
     * device defends itself; the offline trainer's lab device is
     * always stock.
     */
    kgsl::DefenseConfig defense{};
    /** Use the preloaded-store + device-recognition path. */
    bool useDeviceRecognition = false;
    /**
     * Optional transformation applied to the trained model before the
     * attack uses it (ablation studies: counter masking, threshold
     * scaling).
     */
    std::function<attack::SignatureModel(
        const attack::SignatureModel &)> modelTransform;
    /**
     * Record mode: when non-empty, the whole session (counter
     * readings + ground-truth input events + trial boundaries) is
     * captured to this .gpct file for offline replay (src/trace/).
     */
    std::string recordTracePath;
    std::uint64_t seed = 1;
    /**
     * Telemetry context (not owned; null = off). Propagated to the
     * attack pipeline and the victim's KGSL device; the runner adds
     * per-trial spans and counters of its own. Purely observational:
     * results are identical with telemetry on or off.
     */
    obs::Telemetry *telemetry = nullptr;
};

/** Result of one credential trial. */
struct TrialResult
{
    std::string truth;
    std::string inferred;
};

/** Owns a live device + attack session and runs credential trials. */
class ExperimentRunner
{
  public:
    /**
     * @param store model cache; the configuration's model is trained
     * through the offline phase on first use.
     */
    ExperimentRunner(ExperimentConfig cfg, attack::ModelStore &store);
    ~ExperimentRunner();

    /** Type one credential and return truth + inferred text. */
    TrialResult runTrial(const std::string &credential);

    /**
     * Observe every finished trial, stamped with the device's sim
     * time — the hook experiment_cli's --live-metrics mode uses to
     * tick a live telemetry plane between trials. Observational:
     * attaching a listener never changes results.
     */
    void
    setTrialListener(std::function<void(const TrialResult &, SimTime)> fn)
    {
        trialListener_ = std::move(fn);
    }

    /** Run @p n random trials with lengths in [minLen, maxLen]. */
    AccuracyStats runTrials(int n, std::size_t minLen,
                            std::size_t maxLen);

    /** Same, also recording each trial. */
    AccuracyStats runTrials(int n, std::size_t minLen,
                            std::size_t maxLen,
                            std::vector<TrialResult> *trials);

    android::Device &device() { return *device_; }
    attack::Eavesdropper &eavesdropper() { return *eavesdropper_; }
    const attack::SignatureModel &model() const { return *model_; }

    /** Active fault injector, or null when the plan is empty. */
    kgsl::FaultInjector *faultInjector() { return injector_.get(); }

    /** Active defense policy, or null when cfg.defense is stock. */
    const kgsl::DefendedPolicy *defense() const
    {
        return defensePolicy_.get();
    }

    /** Defender-side cost so far (all-zero when undefended). */
    kgsl::DefenseOverhead defenseOverhead() const
    {
        return defensePolicy_ ? defensePolicy_->overhead()
                              : kgsl::DefenseOverhead{};
    }

    /** Pipeline fault-recovery accounting (sampler + detector). */
    attack::HealthStats health() const
    {
        return eavesdropper_->health();
    }

    /**
     * Close the trace being recorded (record mode only); called
     * automatically on destruction. @return the first recording IO
     * error, if any.
     */
    trace::TraceError finishRecording();

    /** True while record mode is writing the trace file. */
    bool recording() const { return traceWriter_.isOpen(); }
    /** Sampler readings tapped into the trace so far. */
    std::uint64_t recordedReadings() const { return recordedReadings_; }

  private:
    ExperimentConfig cfg_;
    /** Declared before device_: the device keeps a raw pointer to the
     *  active policy, so the policy must be destroyed after it. */
    std::unique_ptr<kgsl::DefendedPolicy> defensePolicy_;
    std::unique_ptr<android::Device> device_;
    std::unique_ptr<kgsl::FaultInjector> injector_;
    /** Record mode: live readings and ground truth, tapped from the
     *  sampler and the device's input surfaces. */
    trace::TraceWriter traceWriter_;
    std::uint64_t recordedReadings_ = 0;
    std::optional<attack::SignatureModel> transformedModel_;
    const attack::SignatureModel *model_;
    std::unique_ptr<attack::Eavesdropper> eavesdropper_;
    std::unique_ptr<workload::Typist> typist_;
    std::unique_ptr<workload::CpuLoadModel> cpuLoad_;
    std::unique_ptr<workload::GpuLoadGenerator> gpuLoad_;
    workload::CredentialGenerator creds_;
    Rng rng_;
    obs::StageTimer trialTimer_;
    obs::Counter *trialsCtr_ = nullptr;
    std::function<void(const TrialResult &, SimTime)> trialListener_;
};

} // namespace gpusc::eval

#endif // GPUSC_EVAL_EXPERIMENT_H
