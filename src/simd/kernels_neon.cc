/**
 * @file
 * NEON backend (aarch64): 2 doubles per vector, one lane per panel
 * row. Same bit-exactness contract as the AVX2 backend — each lane
 * runs the scalar reference's IEEE operation sequence in dimension
 * order, with multiply and add kept as two rounded operations (the
 * whole project builds with -ffp-contract=off, so neither the
 * reference loops nor these intrinsics are ever fused into fmadd).
 */

#include "simd/backends.h"

#if defined(GPUSC_SIMD_HAVE_NEON)

#include <arm_neon.h>

namespace gpusc::simd::detail {

namespace {

constexpr std::size_t kLanes = 2;
constexpr std::size_t kExitCheckMask = 7;

template <bool Weighted>
Argmin
argminBody(const double *query, const double *weights,
           const Panel &panel)
{
    Argmin best;
    const std::size_t rows = panel.rows();
    const std::size_t dims = panel.dims();
    for (std::size_t kb = 0; kb < rows; kb += kLanes) {
        float64x2_t acc = vdupq_n_f64(0.0);
        const float64x2_t bound = vdupq_n_f64(best.sq);
        std::size_t d = 0;
        for (; d < dims; ++d) {
            const float64x2_t q = vdupq_n_f64(query[d]);
            const float64x2_t c = vld1q_f64(panel.col(d) + kb);
            float64x2_t diff = vsubq_f64(q, c);
            if constexpr (Weighted)
                diff = vmulq_f64(diff, vdupq_n_f64(weights[d]));
            acc = vaddq_f64(acc, vmulq_f64(diff, diff));
            if ((d & kExitCheckMask) == kExitCheckMask) {
                const uint64x2_t ge = vcgeq_f64(acc, bound);
                if (vgetq_lane_u64(ge, 0) != 0 &&
                    vgetq_lane_u64(ge, 1) != 0)
                    break;
            }
        }
        if (d < dims)
            continue;
        double sums[kLanes];
        vst1q_f64(sums, acc);
        const std::size_t lanes =
            rows - kb < kLanes ? rows - kb : kLanes;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            if (sums[lane] < best.sq) {
                best.sq = sums[lane];
                best.index = kb + lane;
            }
        }
    }
    return best;
}

Argmin
argminL2Neon(const double *query, const Panel &panel)
{
    return argminBody<false>(query, nullptr, panel);
}

Argmin
argminWL2Neon(const double *query, const double *weights,
              const Panel &panel)
{
    return argminBody<true>(query, weights, panel);
}

} // namespace

const Kernels &
neonTable()
{
    static const Kernels table{&argminL2Neon, &argminWL2Neon};
    return table;
}

} // namespace gpusc::simd::detail

#endif // GPUSC_SIMD_HAVE_NEON
