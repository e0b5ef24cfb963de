/**
 * @file
 * The reference the render-engine tests compare gpu::RenderEngine
 * against.
 *
 * This is the counter file RenderEngine kept before reads became a
 * running sum plus one in-flight partial: every job of the last
 * 500 ms is kept, and every read (global, per pid, busy%) walks all
 * of them. Keep it boring — its values ARE the contract, so the loops
 * stay as they were rather than getting faster. It renders every
 * submit (no memo); the memo only caches what the pipeline returns.
 */

#ifndef GPUSC_TESTS_GPU_RENDER_ENGINE_REFERENCE_H
#define GPUSC_TESTS_GPU_RENDER_ENGINE_REFERENCE_H

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <unordered_map>

#include "gfx/scene.h"
#include "gpu/counters.h"
#include "gpu/model.h"
#include "gpu/pipeline.h"
#include "util/event_queue.h"
#include "util/rng.h"

namespace gpusc::gpu::ref {

/** RenderEngine's job timing and counter reads, a job at a time. */
class RenderEngine
{
  public:
    RenderEngine(EventQueue &eq, const GpuModel &model,
                 std::uint64_t noiseSeed)
        : eq_(eq), pipeline_(model), rng_(noiseSeed)
    {
    }

    void setNoiseSigma(double sigma) { noiseSigma_ = sigma; }

    SimTime
    submit(const gfx::FrameScene &scene, int ownerPid = 0)
    {
        using namespace gpusc::sim_literals;
        if (scene.empty())
            return eq_.now();
        const FrameResult r = pipeline_.render(scene);
        CounterVec deltas = r.deltas;
        if (noiseSigma_ > 0.0) {
            for (auto &d : deltas) {
                if (d == 0)
                    continue;
                const auto jitter = std::int64_t(
                    std::llround(rng_.normal(0.0, noiseSigma_)));
                d = std::max<std::int64_t>(0, d + jitter);
            }
        }
        const SimTime start = std::max(eq_.now(), busyUntil_);
        const double costUs =
            pipeline_.model().renderCostUs(r.rasterizedPixels);
        const SimTime end =
            start + SimTime::fromNs(std::int64_t(costUs * 1e3 + 0.5));
        jobs_.push_back(Job{start, end, deltas, ownerPid});
        busyUntil_ = end;
        retireJobs();
        return end;
    }

    SimTime
    submitCompute(SimTime duration)
    {
        if (duration.ns() <= 0)
            return eq_.now();
        const SimTime start = std::max(eq_.now(), busyUntil_);
        const SimTime end = start + duration;
        jobs_.push_back(Job{start, end, CounterVec{}});
        busyUntil_ = end;
        retireJobs();
        return end;
    }

    CounterTotals
    readAll()
    {
        retireJobs();
        CounterTotals out = settled_;
        const SimTime now = eq_.now();
        for (const Job &j : jobs_) {
            const CounterVec acc = accruedAt(j, now);
            for (std::size_t i = 0; i < acc.size(); ++i)
                out[i] += std::uint64_t(acc[i]);
        }
        return out;
    }

    CounterTotals
    readLocal(int pid)
    {
        retireJobs();
        CounterTotals out{};
        auto it = settledPerPid_.find(pid);
        if (it != settledPerPid_.end())
            out = it->second;
        const SimTime now = eq_.now();
        for (const Job &j : jobs_) {
            if (j.ownerPid != pid)
                continue;
            const CounterVec acc = accruedAt(j, now);
            for (std::size_t i = 0; i < acc.size(); ++i)
                out[i] += std::uint64_t(acc[i]);
        }
        return out;
    }

    double
    busyPercent()
    {
        using namespace gpusc::sim_literals;
        retireJobs();
        const SimTime now = eq_.now();
        const SimTime winStart = now > 100_ms ? now - 100_ms : SimTime();
        std::int64_t busyNs = 0;
        for (const Job &j : jobs_) {
            const SimTime s = std::max(j.start, winStart);
            const SimTime e = std::min(j.end, now);
            if (e > s)
                busyNs += (e - s).ns();
        }
        const std::int64_t winNs = (now - winStart).ns();
        if (winNs <= 0)
            return 0.0;
        return 100.0 * double(busyNs) / double(winNs);
    }

  private:
    struct Job
    {
        SimTime start;
        SimTime end;
        CounterVec deltas;
        int ownerPid = 0;
    };

    static CounterVec
    accruedAt(const Job &job, SimTime t)
    {
        CounterVec out{};
        if (t <= job.start)
            return out;
        if (t >= job.end)
            return job.deltas;
        const double frac = double((t - job.start).ns()) /
                            double((job.end - job.start).ns());
        for (std::size_t i = 0; i < out.size(); ++i)
            out[i] = std::int64_t(double(job.deltas[i]) * frac);
        return out;
    }

    void
    retireJobs()
    {
        using namespace gpusc::sim_literals;
        const SimTime now = eq_.now();
        while (!jobs_.empty() && jobs_.front().end + 500_ms < now) {
            const Job &j = jobs_.front();
            CounterTotals &pid = settledPerPid_[j.ownerPid];
            for (std::size_t i = 0; i < j.deltas.size(); ++i) {
                settled_[i] += std::uint64_t(j.deltas[i]);
                pid[i] += std::uint64_t(j.deltas[i]);
            }
            jobs_.pop_front();
        }
    }

    EventQueue &eq_;
    Pipeline pipeline_;
    Rng rng_;
    double noiseSigma_ = 0.0;
    CounterTotals settled_{};
    std::unordered_map<int, CounterTotals> settledPerPid_;
    std::deque<Job> jobs_;
    SimTime busyUntil_;
};

} // namespace gpusc::gpu::ref

#endif // GPUSC_TESTS_GPU_RENDER_ENGINE_REFERENCE_H
