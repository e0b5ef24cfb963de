/**
 * @file
 * Backend conformance for the SIMD kernel layer: every compiled-in
 * backend must reproduce the pinned scalar reference kernels
 * (simd/kernels_ref.h) bit for bit — same sums, same argmin winner,
 * same tie-breaks — across seeded random panels covering the shapes
 * that stress lane handling: odd dims, dims below the vector width,
 * empty panels, single rows, padded tail lanes, exact ties, and NaN
 * queries. "Close" is not good enough: the classifiers' replay==live
 * and worker-count-independence guarantees assume classify results
 * do not depend on which backend ran them.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "simd/kernels.h"
#include "simd/kernels_ref.h"
#include "util/rng.h"

namespace gpusc::simd {
namespace {

/** Pin one backend for a scope; restores the previous on exit. */
class BackendGuard
{
  public:
    explicit BackendGuard(Backend b)
        : prev_(activeBackend()), ok_(forceBackend(b))
    {
    }
    ~BackendGuard() { forceBackend(prev_); }
    BackendGuard(const BackendGuard &) = delete;
    BackendGuard &operator=(const BackendGuard &) = delete;
    bool ok() const { return ok_; }

  private:
    Backend prev_;
    bool ok_;
};

std::vector<Backend>
availableBackends()
{
    std::vector<Backend> v;
    for (const Backend b :
         {Backend::Scalar, Backend::Avx2, Backend::Neon})
        if (backendAvailable(b))
            v.push_back(b);
    return v;
}

std::vector<double>
randomBlock(Rng &rng, std::size_t n)
{
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(-8.0, 8.0);
    return v;
}

/** Bitwise double equality (distinguishes -0.0/0.0, any NaN is
 *  compared by payload — exactly what "bit-identical" means). */
bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

constexpr std::size_t kRowCounts[] = {0, 1, 2, 3, 4, 5, 8, 13};
constexpr std::size_t kDimCounts[] = {1, 2, 3, 4, 7, 8, 11, 16, 17};

TEST(KernelConformanceTest, PanelKernelsMatchReferenceBitExact)
{
    Rng rng(777001);
    for (const std::size_t rows : kRowCounts) {
        for (const std::size_t dims : kDimCounts) {
            const std::vector<double> block =
                randomBlock(rng, rows * dims);
            Panel panel;
            panel.packContiguous(block.data(), rows, dims, dims);

            std::vector<std::vector<double>> queries;
            for (int q = 0; q < 6; ++q)
                queries.push_back(randomBlock(rng, dims));
            if (rows > 0) // zero-distance query: earliest early exit
                queries.push_back({block.begin(),
                                   block.begin() + std::ptrdiff_t(dims)});
            const std::vector<double> weights = randomBlock(rng, dims);

            for (const Backend b : availableBackends()) {
                const BackendGuard guard(b);
                ASSERT_TRUE(guard.ok());
                const Kernels &k = kernels();
                for (const std::vector<double> &q : queries) {
                    const Argmin ga = k.argminL2(q.data(), panel);
                    const Argmin wa = ref::argminL2(q.data(), panel);
                    EXPECT_EQ(ga.index, wa.index)
                        << backendName(b) << " argminL2 rows=" << rows
                        << " dims=" << dims;
                    EXPECT_TRUE(sameBits(ga.sq, wa.sq))
                        << backendName(b) << " argminL2 rows=" << rows
                        << " dims=" << dims;

                    const Argmin gw =
                        k.argminWL2(q.data(), weights.data(), panel);
                    const Argmin ww =
                        ref::argminWL2(q.data(), weights.data(), panel);
                    EXPECT_EQ(gw.index, ww.index)
                        << backendName(b) << " argminWL2 rows=" << rows
                        << " dims=" << dims;
                    EXPECT_TRUE(sameBits(gw.sq, ww.sq))
                        << backendName(b) << " argminWL2 rows=" << rows
                        << " dims=" << dims;
                }
            }
        }
    }
}

TEST(KernelConformanceTest, ArgminTiesBreakToLowestIndex)
{
    // Duplicate rows (including across lane-group boundaries) must
    // resolve to the first occurrence in every backend.
    const std::size_t dims = 3;
    std::vector<double> block;
    const std::vector<double> rowA = {1.0, 2.0, 3.0};
    const std::vector<double> rowB = {4.0, 5.0, 6.0};
    for (int i = 0; i < 9; ++i) {
        const std::vector<double> &r = i % 2 ? rowA : rowB;
        block.insert(block.end(), r.begin(), r.end());
    }
    Panel panel;
    panel.packContiguous(block.data(), 9, dims, dims);

    for (const Backend b : availableBackends()) {
        const BackendGuard guard(b);
        ASSERT_TRUE(guard.ok());
        const Argmin got = kernels().argminL2(rowA.data(), panel);
        EXPECT_EQ(got.index, 1u) << backendName(b);
        EXPECT_EQ(got.sq, 0.0) << backendName(b);
    }
}

TEST(KernelConformanceTest, EmptyPanelAndNanQueries)
{
    Rng rng(777003);
    const Panel empty;
    const std::vector<double> w = {1.0, 1.0, 1.0};
    for (const Backend b : availableBackends()) {
        const BackendGuard guard(b);
        ASSERT_TRUE(guard.ok());
        const double q[3] = {1.0, 2.0, 3.0};
        const Argmin a = kernels().argminL2(q, empty);
        EXPECT_EQ(a.index, Argmin::npos) << backendName(b);
        EXPECT_TRUE(std::isinf(a.sq)) << backendName(b);
    }

    // NaN queries: no row can win (every comparison is false) — and
    // every backend must agree on that.
    const std::size_t dims = 5;
    const std::vector<double> block = randomBlock(rng, 7 * dims);
    Panel panel;
    panel.packContiguous(block.data(), 7, dims, dims);
    std::vector<double> nanQuery(dims, 0.5);
    nanQuery[2] = std::numeric_limits<double>::quiet_NaN();
    const Argmin want = ref::argminL2(nanQuery.data(), panel);
    for (const Backend b : availableBackends()) {
        const BackendGuard guard(b);
        ASSERT_TRUE(guard.ok());
        const Argmin got = kernels().argminL2(nanQuery.data(), panel);
        EXPECT_EQ(got.index, want.index) << backendName(b);
        EXPECT_TRUE(sameBits(got.sq, want.sq)) << backendName(b);
    }
}

TEST(KernelConformanceTest, ScalarBackendIsTheReferenceTable)
{
    // The scalar backend must *be* the pinned reference, not merely
    // agree with it — guards against someone "optimising" the anchor.
    const BackendGuard guard(Backend::Scalar);
    ASSERT_TRUE(guard.ok());
    const Kernels &k = kernels();
    EXPECT_EQ(k.argminL2, &ref::argminL2);
    EXPECT_EQ(k.argminWL2, &ref::argminWL2);
}

TEST(KernelConformanceTest, BuildPinsTheRequestedBackend)
{
    // GPUSC_SIMD_REQUESTED is the build's GPUSC_SIMD cache value.
    const std::string requested = GPUSC_SIMD_REQUESTED;
    if (requested == "auto")
        GTEST_SKIP() << "GPUSC_SIMD=auto picks the backend at runtime";
    EXPECT_EQ(backendName(activeBackend()), requested);
}

} // namespace
} // namespace gpusc::simd
