#include "alloc_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::uint64_t> gAllocations{0};

} // namespace

std::uint64_t
gpusc::test::heapAllocations()
{
    return gAllocations.load(std::memory_order_relaxed);
}

// The aligned and nothrow forms keep their library definitions: the
// nothrow ones forward here, and nothing counted uses the aligned ones.
void *
operator new(std::size_t n)
{
    gAllocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return ::operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
