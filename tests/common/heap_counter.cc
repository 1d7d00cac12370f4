// Counting replacements of the global allocation functions: every
// unaligned `operator new` in the process (any thread, pools and
// containers alike) bumps one counter and forwards to malloc; every
// unaligned `operator delete` forwards to free. The over-aligned forms
// keep their library defaults, which allocate and free as a pair and
// which nothing on the counted paths uses. Link this file into exactly one
// test binary (workspace_test): it changes no allocation behaviour, but a
// second copy of these definitions would clash.
#include "tests/common/heap_counter.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<uint64_t> g_allocations{0};

void* CountedMalloc(std::size_t n) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}

void* CountedNew(std::size_t n) {
  if (void* p = CountedMalloc(n)) return p;
  throw std::bad_alloc();
}

}  // namespace

namespace gids::testing {

uint64_t HeapAllocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace gids::testing

// Every unaligned form is replaced, the nothrow ones included: a library
// default left in place (a sanitizer runtime's, say) would pair its own
// allocation with a free() here, or the other way round.
void* operator new(std::size_t n) { return CountedNew(n); }
void* operator new[](std::size_t n) { return CountedNew(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return CountedMalloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return CountedMalloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
