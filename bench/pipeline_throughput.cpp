/**
 * @file
 * End-to-end pipeline throughput: the same experiment campaign run
 * serially and across the parallel evaluation engine (src/exec/),
 * plus a micro-timing of the SignatureModel classify hot path on the
 * active SIMD backend and on the forced scalar reference. Reports
 * JSON on stdout and mirrors it to BENCH_pipeline.json:
 *
 *   {"bench": "pipeline_throughput", "trials": ...,
 *    "simd_backend": "avx2",
 *    "classify_ns_per_op": ...,          // active backend
 *    "classify_scalar_ns_per_op": ...,   // scalar backend
 *    "pr5_baseline_ns_per_op": 860.0,
 *    "simd_speedup": ..., "speedup_vs_pr5": ..., "speedup_ok": true,
 *    "serial": {"seconds": ..., "trials_per_sec": ...},
 *    "parallel": [{"threads": 2, "seconds": ..., "trials_per_sec":
 *                  ..., "speedup": ..., "deterministic": true}, ...]}
 *
 * "deterministic" asserts the parallel run's (truth, inferred) trial
 * sequence is byte-identical to the single-thread run — the core
 * contract of exec::ParallelRunner. "speedup_ok" is the perf gate: on
 * a vector-capable host classify must beat the scalar-era baseline
 * (~860 ns/op, see ROADMAP.md) by >= 4x; scalar-only hosts pass
 * vacuously.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "attack/model_store.h"
#include "bench_util.h"
#include "eval/experiment.h"
#include "exec/parallel_runner.h"
#include "simd/kernels.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace gpusc;

namespace {

constexpr std::uint64_t kSeed = 20260807;

/** PR-5 classify cost (scalar early-exit rewrites, ROADMAP.md). */
constexpr double kPr5BaselineNs = 860.0;

eval::ExperimentConfig
campaignConfig()
{
    eval::ExperimentConfig cfg;
    cfg.seed = kSeed;
    return cfg;
}

struct CampaignTiming
{
    double seconds = 0.0;
    std::vector<eval::TrialResult> trials;
};

CampaignTiming
timeCampaign(std::size_t threads, int trials)
{
    exec::ParallelRunner runner(campaignConfig(),
                                attack::ModelStore::global(),
                                threads);
    const auto t0 = std::chrono::steady_clock::now();
    exec::ParallelResult res = runner.runTrials(trials, 8, 12);
    const auto t1 = std::chrono::steady_clock::now();
    CampaignTiming out;
    out.seconds = std::chrono::duration<double>(t1 - t0).count();
    out.trials = std::move(res.trials);
    return out;
}

bool
sameTrials(const std::vector<eval::TrialResult> &a,
           const std::vector<eval::TrialResult> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].truth != b[i].truth || a[i].inferred != b[i].inferred)
            return false;
    return true;
}

/** Query mix: real centroids plus perturbations, so both the
 *  early-exit and the full-sum kernel paths are represented. */
std::vector<gpu::CounterVec>
queryMix(const attack::SignatureModel &model)
{
    Rng rng(kSeed);
    std::vector<gpu::CounterVec> queries;
    for (int i = 0; i < 256; ++i) {
        const attack::LabelSignature &sig =
            rng.pick(model.signatures());
        gpu::CounterVec q = sig.centroid;
        for (std::int64_t &v : q)
            v += rng.uniformInt(-50, 50);
        queries.push_back(q);
    }
    return queries;
}

/** Nanoseconds per classify, one call per query. */
double
nsPerClassify(const attack::SignatureModel &model,
              const std::vector<gpu::CounterVec> &queries)
{
    const int iters = 200000;
    double checksum = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        checksum +=
            model.classify(queries[std::size_t(i) % queries.size()])
                .distance;
    const auto t1 = std::chrono::steady_clock::now();
    if (checksum < 0.0) // defeat dead-code elimination
        std::printf("# %f\n", checksum);
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           double(iters);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    const int trials =
        argc > 1 ? int(std::strtol(argv[1], nullptr, 10)) : 48;

    // Train the model once up front so no timing includes it.
    const attack::OfflineTrainer trainer;
    const attack::SignatureModel &model =
        attack::ModelStore::global().getOrTrain(android::DeviceConfig{},
                                                trainer);
    const std::vector<gpu::CounterVec> queries = queryMix(model);

    const simd::Backend active = simd::activeBackend();
    const double classifyNs = nsPerClassify(model, queries);

    // Same measurement with the kernel layer pinned to the scalar
    // reference backend — the in-process control for the SIMD win.
    simd::forceBackend(simd::Backend::Scalar);
    const double scalarNs = nsPerClassify(model, queries);
    simd::forceBackend(active);

    const double speedupVsPr5 = kPr5BaselineNs / classifyNs;
    // Vector hosts must clear >= 4x vs the PR-5 scalar baseline; on
    // a scalar-only host there is no vector win to gate.
    const bool speedupOk =
        active == simd::Backend::Scalar || speedupVsPr5 >= 4.0;

    const CampaignTiming serial = timeCampaign(1, trials);

    std::string json = "{\"bench\": \"pipeline_throughput\", ";
    char buf[512];
    std::snprintf(
        buf, sizeof buf,
        "\"trials\": %d, \"simd_backend\": \"%s\", "
        "\"classify_ns_per_op\": %.1f, "
        "\"classify_scalar_ns_per_op\": %.1f, "
        "\"pr5_baseline_ns_per_op\": %.1f, "
        "\"simd_speedup\": %.2f, \"speedup_vs_pr5\": %.2f, "
        "\"speedup_ok\": %s, "
        "\"serial\": {\"seconds\": %.3f, \"trials_per_sec\": %.2f}, "
        "\"parallel\": [",
        trials, simd::backendName(active).c_str(), classifyNs,
        scalarNs, kPr5BaselineNs,
        scalarNs / classifyNs, speedupVsPr5,
        speedupOk ? "true" : "false", serial.seconds,
        serial.seconds > 0 ? double(trials) / serial.seconds : 0.0);
    json += buf;

    bool allDeterministic = true;
    bool first = true;
    for (const std::size_t threads : {2u, 4u, 8u}) {
        const CampaignTiming par = timeCampaign(threads, trials);
        const bool deterministic =
            sameTrials(serial.trials, par.trials);
        allDeterministic = allDeterministic && deterministic;
        std::snprintf(
            buf, sizeof buf,
            "%s{\"threads\": %zu, \"seconds\": %.3f, "
            "\"trials_per_sec\": %.2f, \"speedup\": %.2f, "
            "\"deterministic\": %s}",
            first ? "" : ", ", threads, par.seconds,
            par.seconds > 0 ? double(trials) / par.seconds : 0.0,
            par.seconds > 0 ? serial.seconds / par.seconds : 0.0,
            deterministic ? "true" : "false");
        json += buf;
        first = false;
    }
    json += "]}";

    std::printf("%s\n", json.c_str());
    bench::writeJsonMirror("BENCH_pipeline.json", json);

    // Exit non-zero on any gate so CI can run this binary directly.
    if (!speedupOk)
        warn("pipeline_throughput: classify %.1f ns/op misses the "
             ">=4x gate vs the %.0f ns/op PR-5 baseline",
             classifyNs, kPr5BaselineNs);
    if (!allDeterministic)
        warn("pipeline_throughput: thread-count determinism violated");
    return speedupOk && allDeterministic ? 0 : 1;
}
