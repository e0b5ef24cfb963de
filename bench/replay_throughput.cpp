/**
 * @file
 * Micro-benchmark for the trace replay path: synthesizes a large
 * .gpct trace, replays it through the detached inference pipeline and
 * reports throughput as JSON on stdout:
 *
 *   {"bench": "replay_throughput", "readings": ..., "seconds": ...,
 *    "readings_per_sec": ...}
 *
 * Replay throughput bounds how fast recorded corpora can be re-scored
 * after a model/pipeline change; at the paper's 8 ms sampling
 * interval, 1M readings/sec replays ~2.2 hours of capture per second.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>

#include <unistd.h>

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
    const std::string path = "/tmp/gpusc_replay_bench." +
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

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const std::uint64_t readings =
        argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 200000;

    const std::string path = synthesizeTrace(readings);
    const attack::SignatureModel model = benchModel();

    // Warm-up pass (page cache + allocator), then the timed pass.
    trace::TraceReplayer replayer(model);
    if (replayer.replayFile(path) != trace::TraceError::None)
        fatal("warm-up replay failed");

    const auto t0 = std::chrono::steady_clock::now();
    if (replayer.replayFile(path) != trace::TraceError::None)
        fatal("replay failed");
    const auto t1 = std::chrono::steady_clock::now();

    const double seconds =
        std::chrono::duration<double>(t1 - t0).count();
    std::printf("{\"bench\": \"replay_throughput\", "
                "\"readings\": %llu, "
                "\"events\": %zu, "
                "\"seconds\": %.6f, "
                "\"readings_per_sec\": %.0f}\n",
                (unsigned long long)replayer.readingsReplayed(),
                replayer.eavesdropper().events().size(), seconds,
                seconds > 0 ? double(readings) / seconds : 0.0);
    std::remove(path.c_str());
    return 0;
}
