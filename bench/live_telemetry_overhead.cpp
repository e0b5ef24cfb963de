/**
 * @file
 * Micro-benchmark guarding the *live plane* overhead budget: ingests
 * the same synthetic reading stream through an IngestService with the
 * plane dormant (allocated but never ticking past its single giant
 * window) and with the plane active at the configured fine width
 * (windowing + SLO evaluation, both sinks off so the measurement
 * isolates plane work from I/O), and reports the median overhead of
 * active over dormant as JSON on stdout, mirrored to
 * BENCH_live_obs.json:
 *
 *   {"bench": "live_telemetry_overhead", "readings": ...,
 *    "windows": ..., "seconds_off": ..., "seconds_base": ...,
 *    "seconds_on": ..., "overhead_pct": ...,
 *    "identical_output": true, "threshold_pct": ...}
 *
 * The DESIGN.md contract for the plane is <3 % over the telemetry-on
 * baseline on the streaming path: a per-pump tick is one branch while
 * inside a window, and a window close snapshots counters through the
 * registry's existing tables. The bench exits non-zero when the
 * median overhead exceeds the threshold (argv-overridable), when the
 * inferred output differs between plane-on and plane-off (the
 * plane-off configuration is still run for exactly that check, and
 * its time is reported as seconds_off for context), or when the
 * active plane closed no window, which would leave nothing measured.
 *
 * The reference load is a session *fleet* (the service's designed
 * operating point — stream_throughput's capacity segment runs
 * 128-1200 sessions): plane cost is per closed window and does not
 * scale with the fleet, so the budget is stated against the work the
 * plane actually observes. A single near-idle session would make the
 * ratio meaningless (the simulated pipeline drains 100 ms of sim
 * time in ~1 us of host time, ~5 orders denser than the real attack
 * the plane was sized for).
 */

#include <ctime>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/live/live_plane.h"
#include "stream/ingest_service.h"
#include "util/logging.h"

using namespace gpusc;

namespace {

/**
 * Per-process CPU seconds. The overhead ratio is gated on CPU time,
 * not wall time: the bench runs single-threaded, so CPU time captures
 * exactly the work under test while excluding the other tenants of a
 * shared CI host — wall-clock medians there swing by more than the
 * entire overhead budget.
 */
double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

struct PassResult
{
    double seconds = 0.0;
    std::string inferred;
    std::uint64_t drained = 0;
    std::uint64_t windows = 0;
};

/**
 * Pass configurations. `Dormant` enables the plane with a fine window
 * wider than any run, so the plane object graph is allocated exactly
 * as in `Active` but the per-tick work degenerates to a handful of
 * map lookups and no window ever closes. Measuring Active against
 * Dormant (instead of against Off) keeps the two processes' heap
 * allocation sequences identical, which removes the dominant noise
 * source on this gate: per-process layout bias. With an Off baseline
 * the mere *presence* of the early plane allocations shifts every
 * later allocation, and the resulting cache-placement delta measures
 * 3-5% in either direction — swamping the ~1% real cost. Off passes
 * are still run for the bit-identical-output check and reported for
 * context, but the gate compares Active vs Dormant.
 */
enum class Mode
{
    Off,     ///< no plane at all (identity baseline)
    Dormant, ///< plane allocated, one giant window (timing baseline)
    Active,  ///< plane at the configured fine width (measured)
};

/** One timed ingest pass in the given plane mode. */
PassResult
ingestPass(const attack::SignatureModel &model,
           const std::vector<attack::Reading> &readings,
           std::size_t fleet, Mode mode, long fineMs)
{
    stream::IngestService::Params params;
    params.backpressure = stream::IngestService::Backpressure::Block;
    params.sessions.session.adaptation = false;
    stream::IngestService svc(model, params);
    if (mode != Mode::Off) {
        obs::live::LiveConfig cfg; // both sinks off: pure plane work
        cfg.series.fineWidth = mode == Mode::Active
                                   ? SimTime::fromMs(fineMs)
                                   : SimTime::fromMs(1000000000L);
        svc.enableLivePlane(std::move(cfg));
    }

    const double t0 = cpuSeconds();
    std::size_t sincePump = 0;
    for (const attack::Reading &r : readings) {
        for (stream::SessionId sid = 0; sid < fleet; ++sid)
            svc.offer(sid, r);
        if (++sincePump == 64) {
            svc.pump();
            sincePump = 0;
        }
    }
    svc.pump();
    if (mode != Mode::Off)
        svc.finishLivePlane();
    const double t1 = cpuSeconds();

    PassResult out;
    out.seconds = t1 - t0;
    const stream::Session *s = svc.sessions().find(0);
    if (s == nullptr)
        fatal("live_telemetry_overhead: session vanished");
    out.inferred = s->eavesdropper().inferredText();
    out.drained = s->readingsDrained();
    if (mode != Mode::Off)
        out.windows = svc.livePlane()->series().windowsClosed();
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    bool quick = false;
    double thresholdPct = 3.0;
    // Many short passes beat few long ones here: a pair of short
    // passes spans ~50 ms of host time, tight enough that frequency
    // scaling barely moves between its two members, and 41 pairs give
    // the median real statistical depth.
    std::uint64_t readings = 2000;
    std::size_t fleet = 128;
    long fineMs = 100;
    int passes = 41;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            quick = true;
        } else if (arg == "--threshold-pct" && i + 1 < argc) {
            thresholdPct = std::atof(argv[++i]);
        } else if (arg == "--readings" && i + 1 < argc) {
            readings = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg == "--fleet" && i + 1 < argc) {
            fleet = std::size_t(std::atol(argv[++i]));
        } else if (arg == "--fine-ms" && i + 1 < argc) {
            fineMs = std::atol(argv[++i]);
        } else if (arg == "--passes" && i + 1 < argc) {
            passes = std::atoi(argv[++i]);
        } else {
            fatal("usage: %s [--quick] [--threshold-pct P] "
                  "[--readings N] [--fleet N] [--fine-ms N] [--passes N]",
                  argv[0]);
        }
    }
    if (quick) {
        // Shorter passes and a smaller population: enough to smoke
        // the gate path, not enough to resolve 1% from 3%.
        readings = std::min<std::uint64_t>(readings, 1000);
        passes = std::min(passes, 15);
    }

    const attack::SignatureModel model = bench::syntheticModel();
    const std::vector<attack::Reading> stream =
        bench::syntheticReadings(readings);

    // Warm-up (allocator, lazily-resolved metric handles), then the
    // bit-identical check: the plane must not perturb inference.
    ingestPass(model, stream, fleet, Mode::Off, fineMs);
    PassResult on = ingestPass(model, stream, fleet, Mode::Active, fineMs);
    const PassResult off =
        ingestPass(model, stream, fleet, Mode::Off, fineMs);

    const bool identical = on.inferred == off.inferred &&
                           on.drained == off.drained;
    if (!identical)
        fatal("live plane changed the inferred output: "
              "'%s' vs '%s'",
              on.inferred.c_str(), off.inferred.c_str());
    if (on.windows == 0)
        fatal("live plane closed no window: nothing to measure");

    // Each pass runs the two configurations back to back (alternating
    // which goes first, so a monotone host slowdown cannot
    // systematically penalise one side) and contributes one *paired
    // ratio*; the gate is the median of those ratios. Pairing matters
    // on a shared host: absolute CPU time per pass drifts ~15% across
    // a run with host frequency, which skews the medians of two
    // separately-sorted populations, while adjacent-in-time pairs see
    // nearly the same frequency and the drift divides out.
    std::vector<double> baseTimes, onTimes;
    for (int p = 0; p < passes; ++p) {
        if (p % 2 == 0) {
            baseTimes.push_back(
                ingestPass(model, stream, fleet, Mode::Dormant, fineMs)
                    .seconds);
            onTimes.push_back(
                ingestPass(model, stream, fleet, Mode::Active, fineMs)
                    .seconds);
        } else {
            onTimes.push_back(
                ingestPass(model, stream, fleet, Mode::Active, fineMs)
                    .seconds);
            baseTimes.push_back(
                ingestPass(model, stream, fleet, Mode::Dormant, fineMs)
                    .seconds);
        }
    }
    // Raw populations on stderr: when a CI gate trips, the
    // distribution tells noise apart from a real regression.
    std::fprintf(stderr, "pass cpu-seconds (dormant/active):\n");
    std::vector<double> ratios;
    for (std::size_t i = 0; i < baseTimes.size(); ++i) {
        std::fprintf(stderr, "  %.6f  %.6f\n", baseTimes[i],
                     onTimes[i]);
        if (baseTimes[i] > 0)
            ratios.push_back(onTimes[i] / baseTimes[i]);
    }
    if (ratios.empty())
        fatal("live_telemetry_overhead: no usable passes");
    std::sort(ratios.begin(), ratios.end());
    std::sort(baseTimes.begin(), baseTimes.end());
    std::sort(onTimes.begin(), onTimes.end());
    const double medBase = baseTimes[baseTimes.size() / 2];
    const double medOn = onTimes[onTimes.size() / 2];
    const double medianRatio = ratios[ratios.size() / 2];
    const double overheadPct = 100.0 * (medianRatio - 1.0);

    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"bench\": \"live_telemetry_overhead\", "
                  "\"readings\": %llu, "
                  "\"fleet\": %zu, "
                  "\"passes\": %d, "
                  "\"windows\": %llu, "
                  "\"seconds_off\": %.6f, "
                  "\"seconds_base\": %.6f, "
                  "\"seconds_on\": %.6f, "
                  "\"overhead_pct\": %.2f, "
                  "\"identical_output\": %s, "
                  "\"threshold_pct\": %.2f}",
                  (unsigned long long)readings, fleet, passes,
                  (unsigned long long)on.windows, off.seconds,
                  medBase, medOn, overheadPct,
                  identical ? "true" : "false", thresholdPct);
    std::printf("%s\n", buf);
    bench::writeJsonMirror("BENCH_live_obs.json", buf);

    if (overheadPct > thresholdPct)
        fatal("live plane overhead %.2f%% exceeds the %.2f%% budget",
              overheadPct, thresholdPct);
    return 0;
}
