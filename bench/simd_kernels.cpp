/**
 * @file
 * Micro-bench of the SIMD kernel layer itself (no pipeline on top):
 * per-call nanoseconds for the two argmin kernels on the shape the
 * classifiers actually run — the 40-ish row signature panel at
 * gpu::kNumSelectedCounters dims — for every backend compiled into
 * this binary. Reports JSON on stdout and mirrors it to
 * BENCH_simd.json:
 *
 *   {"bench": "simd_kernels", "rows": ..., "dims": ...,
 *    "backends": [{"backend": "scalar",
 *                  "argmin_wl2_ns": ..., "argmin_l2_ns": ...}, ...],
 *    "conformant": true}
 *
 * "conformant" cross-checks every backend's argminWL2 winner and
 * distance against the scalar reference over the benched query set
 * (the exhaustive shape sweep lives in
 * tests/simd/kernel_conformance_test.cc; this is the smoke-level
 * repeat so a bench artefact is self-validating).
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "simd/kernels.h"
#include "simd/kernels_ref.h"
#include "util/logging.h"
#include "util/rng.h"

using namespace gpusc;

namespace {

constexpr std::uint64_t kSeed = 20260808;

/** The SignatureModel shape: ~40 keys/pages, 11 counters. */
constexpr std::size_t kSigRows = 40;
constexpr std::size_t kSigDims = 11;

std::vector<double>
randomBlock(Rng &rng, std::size_t n, double lo, double hi)
{
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(lo, hi);
    return v;
}

double
nsPerCall(int iters, const auto &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i)
        fn(i);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() /
           double(iters);
}

struct BackendRow
{
    std::string name;
    double argminWl2Ns = 0.0;
    double argminL2Ns = 0.0;
};

} // namespace

int
main()
{
    setVerbose(false);
    Rng rng(kSeed);

    // Panel + query mix. Queries near the centroids exercise the
    // early-exit pruning the way real classify traffic does.
    const std::vector<double> sigBlock =
        randomBlock(rng, kSigRows * kSigDims, 0.0, 400.0);
    simd::Panel sigPanel;
    sigPanel.packContiguous(sigBlock.data(), kSigRows, kSigDims,
                            kSigDims);
    const std::vector<double> weights =
        randomBlock(rng, kSigDims, 0.001, 0.01);

    const std::size_t nQueries = 256;
    std::vector<double> queries(nQueries * kSigDims);
    for (std::size_t q = 0; q < nQueries; ++q) {
        const std::size_t row =
            std::size_t(rng.uniformInt(0, std::int64_t(kSigRows) - 1));
        for (std::size_t d = 0; d < kSigDims; ++d)
            queries[q * kSigDims + d] =
                sigBlock[row * kSigDims + d] + rng.uniform(-30.0, 30.0);
    }
    const auto query = [&](int i) {
        return queries.data() +
               (std::size_t(i) % nQueries) * kSigDims;
    };

    const simd::Backend initial = simd::activeBackend();
    std::vector<BackendRow> rows;
    bool conformant = true;

    for (const simd::Backend b :
         {simd::Backend::Scalar, simd::Backend::Avx2,
          simd::Backend::Neon}) {
        if (!simd::backendAvailable(b) || !simd::forceBackend(b))
            continue;
        const simd::Kernels &k = simd::kernels();
        BackendRow row;
        row.name = simd::backendName(b);

        double sink = 0.0;
        row.argminWl2Ns = nsPerCall(400000, [&](int i) {
            sink += double(
                k.argminWL2(query(i), weights.data(), sigPanel).index);
        });
        row.argminL2Ns = nsPerCall(400000, [&](int i) {
            sink += double(k.argminL2(query(i), sigPanel).index);
        });
        if (sink < 0.0) // defeat dead-code elimination
            std::printf("# %f\n", sink);

        // Smoke conformance against the pinned scalar reference.
        for (std::size_t q = 0; q < nQueries; ++q) {
            const double *qp = queries.data() + q * kSigDims;
            const simd::Argmin got =
                k.argminWL2(qp, weights.data(), sigPanel);
            const simd::Argmin want =
                simd::ref::argminWL2(qp, weights.data(), sigPanel);
            if (got.index != want.index ||
                std::memcmp(&got.sq, &want.sq, sizeof got.sq) != 0) {
                warn("simd_kernels: %s argminWL2 diverges from the "
                     "scalar reference at query %zu",
                     row.name.c_str(), q);
                conformant = false;
            }
        }
        rows.push_back(row);
    }
    simd::forceBackend(initial);

    std::string json = "{\"bench\": \"simd_kernels\", ";
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "\"rows\": %zu, \"dims\": %zu, \"backends\": [",
                  kSigRows, kSigDims);
    json += buf;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const BackendRow &r = rows[i];
        std::snprintf(
            buf, sizeof buf,
            "%s{\"backend\": \"%s\", \"argmin_wl2_ns\": %.1f, "
            "\"argmin_l2_ns\": %.1f}",
            i ? ", " : "", r.name.c_str(), r.argminWl2Ns, r.argminL2Ns);
        json += buf;
    }
    std::snprintf(buf, sizeof buf, "], \"conformant\": %s}",
                  conformant ? "true" : "false");
    json += buf;

    std::printf("%s\n", json.c_str());
    bench::writeJsonMirror("BENCH_simd.json", json);
    if (!conformant)
        warn("simd_kernels: conformance smoke check failed");
    return conformant ? 0 : 1;
}
