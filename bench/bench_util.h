/**
 * @file
 * Shared helpers for the figure/table reproduction benches.
 *
 * Each bench binary regenerates one table or figure of the paper's
 * evaluation as an aligned text table, using the same experiment
 * pipeline (offline training -> victim session -> typed credentials ->
 * eavesdropping -> scoring). Models are cached process-wide so a bench
 * that sweeps many device configurations trains each one exactly once.
 * The two telemetry-overhead benches share one synthetic model and
 * reading stream, so they need no training at all.
 */

#ifndef GPUSC_BENCH_BENCH_UTIL_H
#define GPUSC_BENCH_BENCH_UTIL_H

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "attack/model_store.h"
#include "attack/sampler.h"
#include "eval/experiment.h"
#include "eval/metrics.h"
#include "util/logging.h"
#include "util/table.h"

namespace gpusc::bench {

/** Default trial counts (paper: 300 texts per configuration). */
inline constexpr int kTrialsFull = 300;
inline constexpr int kTrialsQuick = 120;

/** Run one accuracy cell: n random credentials of length 8-16. */
inline eval::AccuracyStats
accuracyCell(const eval::ExperimentConfig &cfg, int trials,
             std::size_t minLen = 8, std::size_t maxLen = 16)
{
    eval::ExperimentRunner runner(cfg, attack::ModelStore::global());
    return runner.runTrials(trials, minLen, maxLen);
}

/** Print the standard bench banner. */
inline void
banner(const std::string &id, const std::string &what)
{
    std::printf("=== %s: %s ===\n", id.c_str(), what.c_str());
    std::fflush(stdout);
}

/**
 * Mirror a bench's machine-readable output to a BENCH_*.json file
 * next to the working directory (the CI artefact convention).
 * @return true when the file was written.
 */
inline bool
writeJsonMirror(const std::string &path, const std::string &json)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("bench: cannot write %s", path.c_str());
        return false;
    }
    std::fputs(json.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
}

/**
 * A minimal but non-trivial model: eight keys 'a'..'h' whose
 * centroids are what syntheticReadings() redraws, so replaying that
 * stream exercises the real classify path on every change.
 */
inline attack::SignatureModel
syntheticModel()
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

/** @p n readings at 8 ms cadence; every 16th is a keypress redraw. */
inline std::vector<attack::Reading>
syntheticReadings(std::uint64_t n)
{
    std::vector<attack::Reading> out;
    out.reserve(n);
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
        out.push_back(r);
    }
    return out;
}

} // namespace gpusc::bench

#endif // GPUSC_BENCH_BENCH_UTIL_H
