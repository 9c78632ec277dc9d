// Replaces the global operator new/delete of a test binary with malloc/free
// wrappers that count allocations, so a test can assert that a code path
// allocates nothing. It defines the replacement functions, so include it
// from exactly one translation unit of a test binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

/// Heap allocations made through operator new in this test binary.
inline std::atomic<std::uint64_t> g_allocations{0};

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC flags free() here once these are inlined into a new-expression's
// delete; the pair is matched, since operator new above uses malloc().
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop
