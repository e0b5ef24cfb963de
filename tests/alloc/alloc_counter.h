/**
 * @file
 * Heap-allocation counting for the alloc test binary.
 *
 * alloc_counter.cc replaces the global operator new of the binary it
 * is linked into with one that bumps a counter before calling malloc,
 * so a test can read how many allocations a stretch of code made.
 */

#ifndef GPUSC_TESTS_ALLOC_ALLOC_COUNTER_H
#define GPUSC_TESTS_ALLOC_ALLOC_COUNTER_H

#include <cstdint>

namespace gpusc::test {

/** Calls of the replaceable operator new (and new[]) so far. */
std::uint64_t heapAllocations();

} // namespace gpusc::test

#endif // GPUSC_TESTS_ALLOC_ALLOC_COUNTER_H
