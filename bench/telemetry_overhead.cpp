/**
 * @file
 * Micro-benchmark guarding the telemetry overhead budget: replays the
 * same synthetic .gpct trace through the detached inference pipeline
 * with telemetry off and on, and reports both times plus the relative
 * overhead as JSON on stdout:
 *
 *   {"bench": "telemetry_overhead", "readings": ...,
 *    "seconds_off": ..., "seconds_on": ..., "overhead_pct": ...,
 *    "identical_output": true}
 *
 * The src/obs/ design contract is <2 % on this path (DESIGN.md
 * "Observability"): per-reading work is counter increments through
 * pre-resolved handles, and host-clock spans are confined to change
 * granularity plus a 1-in-64 reading sample. The bench also asserts
 * the other half of the contract — the inferred output is
 * bit-identical with telemetry on or off.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/telemetry.h"
#include "trace/trace_replayer.h"
#include "trace/trace_writer.h"
#include "util/logging.h"

using namespace gpusc;

namespace {

/** A minimal but non-trivial model so replay exercises the real
 *  classify path on every detected change. */
attack::SignatureModel
benchModel()
{
    attack::SignatureModel m;
    m.setModelKey("bench/synthetic");
    std::array<double, gpu::kNumSelectedCounters> scale{};
    scale.fill(1.0 / 1000.0);
    m.setScale(scale);
    for (char ch : {'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'}) {
        attack::LabelSignature sig;
        sig.label = attack::Label(1, ch);
        for (std::size_t d = 0; d < sig.centroid.size(); ++d)
            sig.centroid[d] = 8000 + 512 * (ch - 'a') + 31 * long(d);
        m.addSignature(sig);
    }
    m.setThreshold(3.0);
    return m;
}

/** Write @p n readings; every 16th simulates a keypress redraw. */
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
    attack::Reading r;
    gpu::CounterTotals totals{};
    for (std::uint64_t i = 0; i < n; ++i) {
        r.time = SimTime::fromMs(std::int64_t(8 * i));
        if (i % 16 == 15) {
            const int key = int(i / 16) % 8;
            for (std::size_t d = 0; d < totals.size(); ++d)
                totals[d] +=
                    std::uint64_t(8000 + 512 * key + 31 * int(d));
        }
        r.totals = totals;
        if (w.writeReading(r) != trace::TraceError::None)
            fatal("write failed");
    }
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
    const attack::SignatureModel model = benchModel();

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
