/**
 * @file
 * Micro-benchmark of the telemetry overhead on replay: replays the
 * same synthetic .gpct trace through the detached inference pipeline
 * with telemetry off and on, and reports both times plus the relative
 * overhead as JSON on stdout:
 *
 *   {"bench": "telemetry_overhead", "readings": ...,
 *    "seconds_off": ..., "seconds_on": ..., "overhead_pct": ...,
 *    "identical_output": true}
 *
 * Per-reading work is counter increments through pre-resolved
 * handles, and host-clock spans are confined to change granularity
 * plus a 1-in-64 reading sample. The bench fails only when replay
 * fails or the inferred output differs with telemetry on or off; the
 * overhead is reported, not gated (DESIGN.md "Observability" has the
 * readings, ROADMAP item 4 the budget).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.h"
#include "obs/telemetry.h"
#include "trace/trace_replayer.h"
#include "trace/trace_writer.h"
#include "util/logging.h"

using namespace gpusc;

namespace {

/** Write bench::syntheticReadings(@p n) to a per-process trace. */
std::string
synthesizeTrace(std::uint64_t n)
{
    // Unique per process: two runs at once (two build trees, or
    // ctest -j) must not overwrite each other's trace.
    const std::string path = "/tmp/gpusc_telemetry_bench." +
                             std::to_string(::getpid()) + ".gpct";
    trace::TraceHeader header;
    header.deviceKey = "bench/synthetic";
    header.seed = 7;

    trace::TraceWriter w;
    if (w.open(path, header) != trace::TraceError::None)
        fatal("cannot create %s", path.c_str());
    for (const attack::Reading &r : bench::syntheticReadings(n))
        if (w.writeReading(r) != trace::TraceError::None)
            fatal("write failed");
    if (w.close() != trace::TraceError::None)
        fatal("close failed");
    return path;
}

/** One timed replay pass. */
double
timedReplay(trace::TraceReplayer &replayer, const std::string &path)
{
    const auto t0 = std::chrono::steady_clock::now();
    if (replayer.replayFile(path) != trace::TraceError::None)
        fatal("replay failed");
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Reconstructed text of the last replay (identity check). */
std::string
replayOutput(trace::TraceReplayer &replayer)
{
    return replayer.eavesdropper().inferredText();
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const std::uint64_t readings =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;
    const int passes =
        argc > 2 ? std::atoi(argv[2]) : 21;

    const std::string path = synthesizeTrace(readings);
    const attack::SignatureModel model = bench::syntheticModel();

    trace::TraceReplayer off(model);
    obs::Telemetry telemetry;
    attack::Eavesdropper::Params onParams;
    onParams.telemetry = &telemetry;
    trace::TraceReplayer on(model, onParams);

    // Warm-up both (page cache, allocator, lazily-resolved metrics).
    timedReplay(off, path);
    timedReplay(on, path);

    // Each pass times the two configurations back to back and takes
    // their paired ratio, so slow drift of the host (other tenants,
    // frequency scaling) cancels; the median of the per-pass ratios
    // is robust to the remaining spikes. The best absolute times are
    // reported alongside for context.
    double bestOff = 1e100, bestOn = 1e100;
    std::vector<double> ratios;
    for (int p = 0; p < passes; ++p) {
        const double tOff = timedReplay(off, path);
        const double tOn = timedReplay(on, path);
        bestOff = std::min(bestOff, tOff);
        bestOn = std::min(bestOn, tOn);
        if (tOff > 0)
            ratios.push_back(tOn / tOff);
    }
    std::sort(ratios.begin(), ratios.end());
    const double medianRatio =
        ratios.empty() ? 1.0 : ratios[ratios.size() / 2];

    const std::string textOff = replayOutput(off);
    const std::string textOn = replayOutput(on);
    const bool identical =
        textOff == textOn && off.eavesdropper().events().size() ==
                                 on.eavesdropper().events().size();
    if (!identical)
        fatal("telemetry changed the inferred output: '%s' vs '%s'",
              textOff.c_str(), textOn.c_str());

    const double overheadPct = 100.0 * (medianRatio - 1.0);
    std::printf("{\"bench\": \"telemetry_overhead\", "
                "\"readings\": %llu, "
                "\"passes\": %d, "
                "\"events\": %zu, "
                "\"seconds_off\": %.6f, "
                "\"seconds_on\": %.6f, "
                "\"overhead_pct\": %.2f, "
                "\"identical_output\": %s}\n",
                (unsigned long long)readings, passes,
                on.eavesdropper().events().size(), bestOff, bestOn,
                overheadPct, identical ? "true" : "false");
    std::remove(path.c_str());
    return 0;
}
