/**
 * @file
 * AVX2 backend: 4 doubles per vector, one lane per panel row.
 *
 * Bit-exactness contract: every lane executes the identical IEEE
 * operation sequence as the scalar reference — subtract, (optional
 * weight) multiply, square multiply, add — in the same dimension
 * order. Multiplies and adds are issued as separate intrinsics and
 * the TU is compiled with contraction off, so no FMA ever merges
 * them into a differently-rounded fused op.
 *
 * This TU is compiled with -mavx2 only when the target is x86-64 and
 * GPUSC_SIMD allows it; the dispatcher additionally checks cpuid at
 * startup before routing through this table.
 */

#include "simd/backends.h"

#if defined(GPUSC_SIMD_HAVE_AVX2)

#include <immintrin.h>

namespace gpusc::simd::detail {

namespace {

constexpr std::size_t kLanes = 4;

/** Row-blocks interleaved per dimension step. One accumulator chain
 *  per block means the loop is bound by vaddpd latency, not
 *  throughput; four independent chains keep the adder busy. Within
 *  each lane the accumulation order is still strictly dimension
 *  order, so interleaving blocks cannot change a single bit. */
constexpr std::size_t kBlocks = 4;
constexpr std::size_t kGroup = kBlocks * kLanes; // 16 rows

/**
 * Dims between all-lanes-pruned early-exit checks (check when
 * (d & mask) == mask, i.e. every other dimension). With realistic
 * classify traffic the bound gets tight after the first group, so
 * checking often prunes whole groups after 2 dims; checking every
 * dimension costs more in cmp/movemask than the last dim it saves.
 */
constexpr std::size_t kExitCheckMask = 1;

/**
 * Group loop bound: full kGroup-row groups must stay inside the
 * lane-padded stride (padded rows are +inf and are simply never
 * stored / never win).
 */
inline std::size_t
groupEnd(const Panel &panel)
{
    const std::size_t stride = panel.stride();
    return stride >= kGroup ? stride - kGroup + 1 : 0;
}

/**
 * Shared argmin body. Pruning only ever *skips* rows whose partial
 * sums already reached the current best (padded lanes sit at +inf
 * from dimension 0, so they prune themselves and can never win);
 * completed sums are bit-exact, and the winner scan walks lanes in
 * row order with strict <, reproducing the scalar first-wins
 * tie-break.
 */
template <bool Weighted>
Argmin
argminBody(const double *query, const double *weights,
           const Panel &panel)
{
    Argmin best;
    const std::size_t rows = panel.rows();
    const std::size_t dims = panel.dims();
    std::size_t kb = 0;
    for (const std::size_t end = groupEnd(panel); kb < end;
         kb += kGroup) {
        // Named accumulators: GCC keeps these in ymm registers where
        // an indexed __m256d array would spill to the stack per
        // iteration (-O2 does not unroll the block loop).
        __m256d a0 = _mm256_setzero_pd();
        __m256d a1 = _mm256_setzero_pd();
        __m256d a2 = _mm256_setzero_pd();
        __m256d a3 = _mm256_setzero_pd();
        const __m256d bound = _mm256_set1_pd(best.sq);
        std::size_t d = 0;
        for (; d < dims; ++d) {
            const __m256d q = _mm256_set1_pd(query[d]);
            const double *col = panel.col(d) + kb;
            __m256d d0 = _mm256_sub_pd(q, _mm256_loadu_pd(col));
            __m256d d1 =
                _mm256_sub_pd(q, _mm256_loadu_pd(col + kLanes));
            __m256d d2 =
                _mm256_sub_pd(q, _mm256_loadu_pd(col + 2 * kLanes));
            __m256d d3 =
                _mm256_sub_pd(q, _mm256_loadu_pd(col + 3 * kLanes));
            if constexpr (Weighted) {
                const __m256d w = _mm256_set1_pd(weights[d]);
                d0 = _mm256_mul_pd(d0, w);
                d1 = _mm256_mul_pd(d1, w);
                d2 = _mm256_mul_pd(d2, w);
                d3 = _mm256_mul_pd(d3, w);
            }
            a0 = _mm256_add_pd(a0, _mm256_mul_pd(d0, d0));
            a1 = _mm256_add_pd(a1, _mm256_mul_pd(d1, d1));
            a2 = _mm256_add_pd(a2, _mm256_mul_pd(d2, d2));
            a3 = _mm256_add_pd(a3, _mm256_mul_pd(d3, d3));
            if ((d & kExitCheckMask) == kExitCheckMask) {
                const __m256d ge = _mm256_and_pd(
                    _mm256_and_pd(
                        _mm256_cmp_pd(a0, bound, _CMP_GE_OQ),
                        _mm256_cmp_pd(a1, bound, _CMP_GE_OQ)),
                    _mm256_and_pd(
                        _mm256_cmp_pd(a2, bound, _CMP_GE_OQ),
                        _mm256_cmp_pd(a3, bound, _CMP_GE_OQ)));
                if (_mm256_movemask_pd(ge) == 0xF)
                    break;
            }
        }
        if (d < dims)
            continue; // every lane already past the current best
        double sums[kGroup];
        _mm256_storeu_pd(sums, a0);
        _mm256_storeu_pd(sums + kLanes, a1);
        _mm256_storeu_pd(sums + 2 * kLanes, a2);
        _mm256_storeu_pd(sums + 3 * kLanes, a3);
        const std::size_t lanes =
            rows - kb < kGroup ? rows - kb : kGroup;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            if (sums[lane] < best.sq) {
                best.sq = sums[lane];
                best.index = kb + lane;
            }
        }
    }
    for (; kb < rows; kb += kLanes) {
        __m256d acc = _mm256_setzero_pd();
        const __m256d bound = _mm256_set1_pd(best.sq);
        std::size_t d = 0;
        for (; d < dims; ++d) {
            const __m256d q = _mm256_set1_pd(query[d]);
            const __m256d c = _mm256_loadu_pd(panel.col(d) + kb);
            __m256d diff = _mm256_sub_pd(q, c);
            if constexpr (Weighted)
                diff = _mm256_mul_pd(diff,
                                     _mm256_set1_pd(weights[d]));
            acc = _mm256_add_pd(acc, _mm256_mul_pd(diff, diff));
            if ((d & kExitCheckMask) == kExitCheckMask) {
                const __m256d ge =
                    _mm256_cmp_pd(acc, bound, _CMP_GE_OQ);
                if (_mm256_movemask_pd(ge) == 0xF)
                    break;
            }
        }
        if (d < dims)
            continue; // every lane already past the current best
        double sums[kLanes];
        _mm256_storeu_pd(sums, acc);
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
argminL2Avx2(const double *query, const Panel &panel)
{
    return argminBody<false>(query, nullptr, panel);
}

Argmin
argminWL2Avx2(const double *query, const double *weights,
              const Panel &panel)
{
    return argminBody<true>(query, weights, panel);
}

} // namespace

const Kernels &
avx2Table()
{
    static const Kernels table{&argminL2Avx2, &argminWL2Avx2};
    return table;
}

bool
avx2CpuSupported()
{
    return __builtin_cpu_supports("avx2") != 0;
}

} // namespace gpusc::simd::detail

#endif // GPUSC_SIMD_HAVE_AVX2
