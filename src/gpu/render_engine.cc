#include "gpu/render_engine.h"

#include <algorithm>
#include <cmath>

namespace gpusc::gpu {

using namespace gpusc::sim_literals;

namespace {

/** Trailing window used for the busy-percentage node. Folded jobs
 *  that ended before it can no longer affect anything. */
constexpr SimTime kBusyWindow = 100_ms;

} // namespace

RenderEngine::RenderEngine(EventQueue &eq, const GpuModel &model,
                           std::uint64_t noiseSeed)
    : eq_(eq), pipeline_(model), rng_(noiseSeed)
{
}

SimTime
RenderEngine::submit(const gfx::FrameScene &scene, int ownerPid)
{
    if (scene.empty())
        return eq_.now();

    const std::uint64_t key = scene.contentHash();
    auto it = sceneCache_.find(key);
    if (it == sceneCache_.end()) {
        if (sceneCache_.size() >= kMemoCapacity)
            sceneCache_.clear();
        FrameResult r = pipeline_.render(scene);
        it = sceneCache_
                 .emplace(key, CacheEntry{r.deltas, r.rasterizedPixels})
                 .first;
    }

    CounterVec deltas = it->second.deltas;
    if (noiseSigma_ > 0.0) {
        // Concurrent OS rendering (status-bar clock, blending/dither
        // variation) perturbs each active counter slightly.
        for (auto &d : deltas) {
            if (d == 0)
                continue;
            const auto jitter =
                std::int64_t(std::llround(rng_.normal(0.0, noiseSigma_)));
            d = std::max<std::int64_t>(0, d + jitter);
        }
    }

    const SimTime start = std::max(eq_.now(), busyUntil_);
    const double costUs =
        pipeline_.model().renderCostUs(it->second.rasterizedPixels);
    const SimTime end =
        start + SimTime::fromNs(std::int64_t(costUs * 1e3 + 0.5));

    jobs_.push_back(Job{start, end, deltas, ownerPid});
    busyUntil_ = end;
    totalBusy_ += end - start;
    ++framesRendered_;
    settle();
    return end;
}

SimTime
RenderEngine::submitCompute(SimTime duration)
{
    if (duration.ns() <= 0)
        return eq_.now();
    const SimTime start = std::max(eq_.now(), busyUntil_);
    const SimTime end = start + duration;
    jobs_.push_back(Job{start, end, CounterVec{}});
    busyUntil_ = end;
    totalBusy_ += duration;
    settle();
    return end;
}

const RenderEngine::Job *
RenderEngine::settle()
{
    const SimTime now = eq_.now();
    // Jobs run back to back, so they finish in submission order and
    // everything after the first unfinished job has not started yet.
    while (folded_ < jobs_.size()) {
        const Job &j = jobs_[folded_];
        if (now <= j.start || now < j.end)
            break;
        CounterTotals &pid = donePerPid_[j.ownerPid];
        for (std::size_t i = 0; i < j.deltas.size(); ++i) {
            done_[i] += std::uint64_t(j.deltas[i]);
            pid[i] += std::uint64_t(j.deltas[i]);
        }
        ++folded_;
    }
    std::size_t drop = 0;
    while (drop < folded_ && jobs_[drop].end + kBusyWindow < now)
        ++drop;
    if (drop > 0) {
        jobs_.erase(jobs_.begin(), jobs_.begin() + std::ptrdiff_t(drop));
        folded_ -= drop;
    }
    if (folded_ < jobs_.size() && jobs_[folded_].start < now)
        return &jobs_[folded_];
    return nullptr;
}

void
RenderEngine::addPartial(CounterTotals &out, const Job &job, SimTime t)
{
    // Mid-job read: counters accrue (approximately) linearly with GPU
    // progress through the draw list.
    const double frac = double((t - job.start).ns()) /
                        double((job.end - job.start).ns());
    for (std::size_t i = 0; i < out.size(); ++i)
        out[i] += std::uint64_t(std::int64_t(double(job.deltas[i]) * frac));
}

std::uint64_t
RenderEngine::read(SelectedCounter c)
{
    return readAll()[c];
}

CounterTotals
RenderEngine::readAll()
{
    const Job *open = settle();
    CounterTotals out = done_;
    if (open)
        addPartial(out, *open, eq_.now());
    return out;
}

CounterTotals
RenderEngine::readLocal(int pid)
{
    const Job *open = settle();
    CounterTotals out{};
    auto it = donePerPid_.find(pid);
    if (it != donePerPid_.end())
        out = it->second;
    if (open && open->ownerPid == pid)
        addPartial(out, *open, eq_.now());
    return out;
}

double
RenderEngine::busyPercent()
{
    settle();
    const SimTime now = eq_.now();
    const SimTime winStart =
        now > kBusyWindow ? now - kBusyWindow : SimTime();
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

} // namespace gpusc::gpu
