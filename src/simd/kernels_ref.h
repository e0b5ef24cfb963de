/**
 * @file
 * The scalar reference kernels.
 *
 * These inline loops ARE the contract: the scalar backend's table
 * points straight at the argmin kernels, the classifiers call the
 * per-pair (across-dimension) reductions directly, and the
 * conformance tests check every vector backend against them. Keep
 * them boring — each one is the exact operation sequence of the
 * classifier hot paths that tests/ml/knn_regression_test.cc pins.
 */

#ifndef GPUSC_SIMD_KERNELS_REF_H
#define GPUSC_SIMD_KERNELS_REF_H

#include <cstddef>

#include "simd/kernels.h"
#include "simd/panel.h"

namespace gpusc::simd::ref {

/**
 * Squared L2 with partial-sum early exit: abandons the sum as soon as
 * it reaches (>=) @p bound and returns the partial sum (which is then
 * >= bound and only meaningful as "not a winner"). Completed sums are
 * bit-exact.
 */
inline double
l2sqEarlyExitGe(const double *a, const double *b, std::size_t dims,
                double bound)
{
    double s = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
        const double diff = a[d] - b[d];
        s += diff * diff;
        if (s >= bound)
            return s;
    }
    return s;
}

/** Same, but only abandons when the sum strictly exceeds (>)
 *  @p bound — the KNN k-buffer keeps equal-distance candidates. */
inline double
l2sqEarlyExitGt(const double *a, const double *b, std::size_t dims,
                double bound)
{
    double s = 0.0;
    for (std::size_t d = 0; d < dims; ++d) {
        const double diff = a[d] - b[d];
        s += diff * diff;
        if (s > bound)
            return s;
    }
    return s;
}

inline double
sumSquares(const double *a, std::size_t dims)
{
    double s = 0.0;
    for (std::size_t d = 0; d < dims; ++d)
        s += a[d] * a[d];
    return s;
}

inline Argmin
argminL2(const double *query, const Panel &panel)
{
    Argmin best;
    for (std::size_t k = 0; k < panel.rows(); ++k) {
        double s = 0.0;
        std::size_t d = 0;
        for (; d < panel.dims(); ++d) {
            const double diff = query[d] - panel.col(d)[k];
            s += diff * diff;
            if (s >= best.sq)
                break;
        }
        if (d < panel.dims())
            continue;
        if (s < best.sq) {
            best.sq = s;
            best.index = k;
        }
    }
    return best;
}

inline Argmin
argminWL2(const double *query, const double *weights,
          const Panel &panel)
{
    Argmin best;
    for (std::size_t k = 0; k < panel.rows(); ++k) {
        double s = 0.0;
        std::size_t d = 0;
        for (; d < panel.dims(); ++d) {
            const double diff =
                (query[d] - panel.col(d)[k]) * weights[d];
            s += diff * diff;
            if (s >= best.sq)
                break;
        }
        if (d < panel.dims())
            continue;
        if (s < best.sq) {
            best.sq = s;
            best.index = k;
        }
    }
    return best;
}

} // namespace gpusc::simd::ref

#endif // GPUSC_SIMD_KERNELS_REF_H
