/**
 * @file
 * The GPU as a timed, serially-shared resource.
 *
 * Render jobs (one per surface redraw) execute back-to-back in
 * submission order; each occupies the GPU for a duration derived from
 * the model's cost parameters. Counter reads are *time aware*: a read
 * landing inside a job observes the partially accumulated deltas, which
 * is precisely the physical mechanism behind the "split" artefact the
 * paper's Algorithm 1 repairs (two consecutive reads see two pieces
 * that sum to the true per-frame delta).
 *
 * Because jobs run one after another and the clock only moves
 * forward, at most one job is ever partly accrued: a read is the
 * running sum of finished jobs plus that one job's partial, so its
 * cost does not grow with the number of recent frames.
 *
 * Identical frames (same damage + draw list) hit a content-hash memo
 * so long experiment campaigns do not re-rasterise unchanged scenes.
 * The memo holds at most kMemoCapacity frames and is dropped whole
 * when a miss finds it full.
 */

#ifndef GPUSC_GPU_RENDER_ENGINE_H
#define GPUSC_GPU_RENDER_ENGINE_H

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "gfx/scene.h"
#include "gpu/counters.h"
#include "gpu/model.h"
#include "gpu/pipeline.h"
#include "util/event_queue.h"
#include "util/rng.h"

namespace gpusc::gpu {

/** Timed GPU front-end wrapping the counter pipeline. */
class RenderEngine
{
  public:
    RenderEngine(EventQueue &eq, const GpuModel &model,
                 std::uint64_t noiseSeed = 1);

    /**
     * Submit a surface redraw. The job starts when the GPU becomes
     * free and ends after the model's render cost for the scene.
     * @param ownerPid process the work is attributed to (0 = system).
     * @return the job's completion time.
     */
    SimTime submit(const gfx::FrameScene &scene, int ownerPid = 0);

    /**
     * Submit compute/blit-style work: occupies the GPU for
     * @p duration (delaying rendering and raising busy%), but does
     * not traverse the binning/LRZ/raster pipeline, so the selected
     * counters are unaffected — the §7.3 background-workload shape.
     * @return the job's completion time.
     */
    SimTime submitCompute(SimTime duration);

    /** Cumulative value of one selected counter observable *now*. */
    std::uint64_t read(SelectedCounter c);

    /** Cumulative values of all selected counters observable now. */
    CounterTotals readAll();

    /**
     * Cumulative counters attributable to @p pid only — what the
     * GL_AMD_performance_monitor extension exposes to an application
     * about *itself* (paper §3.3). An app that renders nothing reads
     * zeros here, which is exactly why the attack bypasses the GLES
     * API for the global device-file registers.
     */
    CounterTotals readLocal(int pid);

    /**
     * GPU utilisation over the trailing window (default 100 ms),
     * mirroring the kgsl sysfs gpu_busy_percentage node.
     */
    double busyPercent();

    /**
     * Std deviation of the additive measurement perturbation applied
     * to each non-zero counter delta (models concurrent OS rendering
     * variation). Zero disables it.
     */
    void setNoiseSigma(double sigma) { noiseSigma_ = sigma; }
    double noiseSigma() const { return noiseSigma_; }

    /** Time at which all submitted work completes. */
    SimTime busyUntil() const { return busyUntil_; }

    /** True if a job is executing at the current time. */
    bool busyNow() const { return eq_.now() < busyUntil_; }

    /** The simulation clock this engine runs on (telemetry stamps). */
    const EventQueue &clock() const { return eq_; }

    const GpuModel &model() const { return pipeline_.model(); }

    std::uint64_t framesRendered() const { return framesRendered_; }

    /**
     * Most frames the render memo holds. It is above the distinct
     * frames any device rendered in 400-trial chase and pnc campaigns
     * (2,349 at most, a pnc training device: the animated screen
     * repeats only after ~2,000 vsyncs).
     */
    static constexpr std::size_t kMemoCapacity = 4096;
    /** Frames memoised now. */
    std::size_t memoEntries() const { return sceneCache_.size(); }
    /** Total GPU-active time since construction (for the power model). */
    SimTime totalBusyTime() const { return totalBusy_; }

  private:
    struct Job
    {
        SimTime start;
        SimTime end;
        CounterVec deltas;
        int ownerPid = 0;
    };

    struct CacheEntry
    {
        CounterVec deltas;
        std::int64_t rasterizedPixels;
    };

    /**
     * Fold the jobs that have fully accrued by now into the running
     * sums, then drop folded jobs too old to overlap the busy window.
     * @return the one job that may be partly accrued now, or nullptr.
     */
    const Job *settle();

    /** Add @p job's partial accrual at @p t (start < t < end). */
    static void addPartial(CounterTotals &out, const Job &job, SimTime t);

    EventQueue &eq_;
    Pipeline pipeline_;
    Rng rng_;
    double noiseSigma_ = 0.0;

    /** Sums of every folded job, overall and per owner pid. */
    CounterTotals done_{};
    std::unordered_map<int, CounterTotals> donePerPid_;
    /** Jobs in start order; the first `folded_` are in done_. A
     *  handful at a time, so dropping from the front is a short move
     *  and the buffer is reused. */
    std::vector<Job> jobs_;
    std::size_t folded_ = 0;
    SimTime busyUntil_;
    SimTime totalBusy_;
    std::uint64_t framesRendered_ = 0;

    std::unordered_map<std::uint64_t, CacheEntry> sceneCache_;
};

} // namespace gpusc::gpu

#endif // GPUSC_GPU_RENDER_ENGINE_H
