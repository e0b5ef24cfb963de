/**
 * @file
 * Portable vector-kernel layer for the classifier hot paths.
 *
 * Exposes the two kernels the classifiers spend their time in:
 * nearest panel row by squared L2 distance, plain and per-dimension
 * weighted, with bound-pruned early exit and a first-wins tie-break.
 * Three backends implement the table:
 *
 *  - Scalar: the pinned reference. Its loops are, operation for
 *    operation, the PR-5 hot-path rewrites that
 *    tests/ml/knn_regression_test.cc bit-compares against the
 *    original classifier implementations.
 *  - Avx2 / Neon: vectorise *across rows* of a Panel — one lane per
 *    centroid, dimensions accumulated sequentially, multiply and add
 *    kept as two rounded operations (no FMA contraction). Each
 *    lane therefore performs the identical IEEE operation sequence
 *    as the scalar reference, so every backend's output is
 *    bit-identical, not merely close (pinned by
 *    tests/simd/kernel_conformance_test.cc).
 *
 * Per-pair reductions (one query against one row) accumulate across
 * *dimensions*, where any lane split would reorder the floating-point
 * sum; they are the same scalar loop in every backend, so callers use
 * simd::ref directly and the table carries only the panel kernels.
 *
 * Backend selection: the build compiles whichever backends the
 * target architecture supports (see GPUSC_SIMD in CMake); at startup
 * the best runtime-supported backend is chosen (cpuid on x86), or
 * the build can pin one with -DGPUSC_SIMD=scalar|avx2|neon. Tests
 * swap backends with forceBackend() to cross-check outputs.
 */

#ifndef GPUSC_SIMD_KERNELS_H
#define GPUSC_SIMD_KERNELS_H

#include <cstddef>
#include <limits>
#include <string>

#include "simd/panel.h"

namespace gpusc::simd {

/** Result of an argmin kernel. */
struct Argmin
{
    /** Winning row, or npos when the panel is empty. */
    std::size_t index = npos;
    /** The winner's full squared distance (+inf when empty). */
    double sq = std::numeric_limits<double>::infinity();

    static constexpr std::size_t npos = std::size_t(-1);
};

/** Dispatch table of the kernel layer. */
struct Kernels
{
    /** Nearest row by squared L2; ties break to the lowest index
     *  (strict-< winner scan), with bound-pruned early exit. */
    Argmin (*argminL2)(const double *query,
                       const Panel &panel) = nullptr;
    /** Weighted nearest row, sum of ((q[d]-row[d]) * w[d])^2 (the
     *  SignatureModel classify kernel). */
    Argmin (*argminWL2)(const double *query, const double *weights,
                        const Panel &panel) = nullptr;
};

enum class Backend
{
    Scalar,
    Avx2,
    Neon,
};

/** The active dispatch table (startup-selected; see forceBackend). */
const Kernels &kernels();

Backend activeBackend();

/** Compiled in *and* supported by the running CPU. */
bool backendAvailable(Backend b);

/**
 * Swap the active backend (conformance tests, benches). Not for use
 * while other threads are inside kernel calls. @return false (and
 * leaves the active backend unchanged) when @p b is unavailable.
 */
bool forceBackend(Backend b);

std::string backendName(Backend b);

} // namespace gpusc::simd

#endif // GPUSC_SIMD_KERNELS_H
