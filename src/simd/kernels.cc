#include "simd/kernels.h"

#include <atomic>

#include "simd/backends.h"
#include "simd/kernels_ref.h"
#include "util/logging.h"

namespace gpusc::simd {

namespace {

const Kernels kScalar{&ref::argminL2, &ref::argminWL2};

Backend
bestBackend()
{
#if defined(GPUSC_SIMD_FORCE_SCALAR)
    return Backend::Scalar;
#elif defined(GPUSC_SIMD_FORCE_AVX2)
    if (!backendAvailable(Backend::Avx2))
        panic("simd: built with GPUSC_SIMD=avx2 but this CPU has no "
              "AVX2");
    return Backend::Avx2;
#elif defined(GPUSC_SIMD_FORCE_NEON)
    if (!backendAvailable(Backend::Neon))
        panic("simd: built with GPUSC_SIMD=neon but NEON is "
              "unavailable");
    return Backend::Neon;
#else
    if (backendAvailable(Backend::Avx2))
        return Backend::Avx2;
    if (backendAvailable(Backend::Neon))
        return Backend::Neon;
    return Backend::Scalar;
#endif
}

const Kernels *
tableFor(Backend b)
{
    switch (b) {
      case Backend::Avx2:
#if defined(GPUSC_SIMD_HAVE_AVX2)
        return &detail::avx2Table();
#else
        return nullptr;
#endif
      case Backend::Neon:
#if defined(GPUSC_SIMD_HAVE_NEON)
        return &detail::neonTable();
#else
        return nullptr;
#endif
      case Backend::Scalar:
        return &kScalar;
    }
    return nullptr;
}

std::atomic<const Kernels *> &
activeTable()
{
    static std::atomic<const Kernels *> table{
        tableFor(bestBackend())};
    return table;
}

std::atomic<Backend> &
activeBackendSlot()
{
    static std::atomic<Backend> backend{bestBackend()};
    return backend;
}

} // namespace

const Kernels &
kernels()
{
    return *activeTable().load(std::memory_order_acquire);
}

Backend
activeBackend()
{
    return activeBackendSlot().load(std::memory_order_acquire);
}

bool
backendAvailable(Backend b)
{
    switch (b) {
      case Backend::Scalar:
        return true;
      case Backend::Avx2:
#if defined(GPUSC_SIMD_HAVE_AVX2)
        return detail::avx2CpuSupported();
#else
        return false;
#endif
      case Backend::Neon:
#if defined(GPUSC_SIMD_HAVE_NEON)
        return true;
#else
        return false;
#endif
    }
    return false;
}

bool
forceBackend(Backend b)
{
    if (!backendAvailable(b))
        return false;
    const Kernels *table = tableFor(b);
    if (!table)
        return false;
    activeTable().store(table, std::memory_order_release);
    activeBackendSlot().store(b, std::memory_order_release);
    return true;
}

std::string
backendName(Backend b)
{
    switch (b) {
      case Backend::Scalar:
        return "scalar";
      case Backend::Avx2:
        return "avx2";
      case Backend::Neon:
        return "neon";
    }
    return "unknown";
}

} // namespace gpusc::simd
