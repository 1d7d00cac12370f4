// A warm cache allocates nothing: look-ahead registrations, lookups,
// insertions and invalidations of pages it has never seen, on a full,
// evicting, window-pinned cache, make no heap allocation at all. The
// count is taken at global operator new (tests/common/heap_counter.cc),
// so it covers every allocator, not just pool misses; both files are
// built into workspace_test only.
#include <gtest/gtest.h>

#include <cstdint>

#include "storage/software_cache.h"
#include "tests/common/heap_counter.h"

namespace gids::storage {
namespace {

TEST(CacheZeroAllocTest, FreshPagesOnAWarmCacheAllocateNothing) {
  constexpr uint64_t kLines = 256;
  constexpr uint64_t kPages = 1 << 16;
  SoftwareCache cache(kLines * 4096, 4096, kPages, /*seed=*/5,
                      /*store_payloads=*/false, /*num_shards=*/4);
  // Warm-up: fill every line, pinning every fourth page for the whole run.
  uint64_t fresh = 0;
  for (; cache.resident_lines() < kLines; ++fresh) {
    if (fresh % 4 == 0) cache.AddFutureReuse(fresh, 1);
    cache.Insert(fresh);
  }
  const uint64_t pinned = cache.pinned_lines();
  const CacheStats before = cache.stats();

  const uint64_t allocs_before = gids::testing::HeapAllocations();
  for (uint64_t p = fresh; p < fresh + 4096; ++p) {
    cache.AddFutureReuse(p, 2);
    cache.Lookup(p);  // miss; consumes one registered reuse
    cache.Insert(p);  // evicts (probing past pinned lines) or bypasses
    cache.Lookup(p);  // drains the pin
    if (p % 4 == 0) cache.Invalidate(p - 1);  // never a pinned page
  }
  const uint64_t allocs = gids::testing::HeapAllocations() - allocs_before;
  EXPECT_EQ(allocs, 0u);

  // The loop reached the paths it claims to cover.
  const CacheStats after = cache.stats();
  EXPECT_GT(after.evictions, before.evictions);
  EXPECT_GT(after.pinned_probe_skips, before.pinned_probe_skips);
  EXPECT_GT(pinned, 0u);
  EXPECT_EQ(cache.pinned_lines(), pinned);
}

}  // namespace
}  // namespace gids::storage
