// A warm storage stack allocates nothing: look-ahead registrations,
// lookups, insertions and invalidations of pages a cache has never seen,
// on a full, evicting, window-pinned cache, fault-free storage reads, and
// the costing of a gather make no heap allocation at all. The count is taken at global operator
// new (tests/common/heap_counter.cc), so it covers every allocator, not
// just pool misses; both files are built into workspace_test only.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/system_model.h"
#include "storage/block_device.h"
#include "storage/feature_gather.h"
#include "storage/software_cache.h"
#include "storage/storage_array.h"
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

// A warm fault-free storage read, doorbell included, allocates nothing,
// with a payload buffer or without one (counting mode's empty span).
TEST(StorageZeroAllocTest, WarmFaultFreeReadsAllocateNothing) {
  constexpr uint64_t kPages = 4096;
  constexpr uint32_t kPageBytes = 4096;
  StorageArray array(
      std::make_unique<FunctionBlockDevice>(
          kPages, kPageBytes,
          [](uint64_t lba, std::span<std::byte> out) {
            for (std::byte& b : out) b = static_cast<std::byte>(lba);
          }),
      sim::SsdSpec::IntelOptane(), /*n_ssd=*/2);
  std::vector<std::byte> payload(kPageBytes);
  for (uint64_t p = 0; p < 64; ++p) {  // warm-up
    ASSERT_TRUE(array.ReadPage(p, payload).ok());
    ASSERT_TRUE(array.ReadPage(p, {}).ok());
  }
  const uint64_t reads_before = array.total_reads();

  const uint64_t allocs_before = gids::testing::HeapAllocations();
  for (uint64_t p = 64; p < kPages; ++p) {
    Status payload_read = array.ReadPage(p, payload);
    Status counted_read = array.ReadPage(p, {});
    if (!payload_read.ok() || !counted_read.ok()) break;
  }
  const uint64_t allocs = gids::testing::HeapAllocations() - allocs_before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(array.total_reads() - reads_before, 2 * (kPages - 64));
  EXPECT_EQ(payload[0], static_cast<std::byte>(kPages - 1));
}

// Costing a gather reads the system's SsdSpec in place. A copy would
// allocate: the Optane spec's name does not fit std::string's inline
// buffer.
TEST(StorageZeroAllocTest, CostGatherOnOptaneAllocatesNothing) {
  const sim::SystemModel system(
      sim::SystemConfig::Paper(sim::SsdSpec::IntelOptane(), /*n_ssd=*/2));
  FeatureGatherCounts counts;
  counts.nodes = 96;
  counts.gpu_cache_hits = 40;
  counts.cpu_buffer_hits = 16;
  counts.storage_reads = 64;
  const GatherReceipt receipt;

  const uint64_t allocs_before = gids::testing::HeapAllocations();
  const GatherCost cost =
      CostGather(system, counts, /*page_bytes=*/4096, receipt,
                 StorageArray::kQueueCapacity, /*mutation_ns=*/0,
                 /*members=*/1);
  const uint64_t allocs = gids::testing::HeapAllocations() - allocs_before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(cost.timing.ssd_ns, 0);
}

}  // namespace
}  // namespace gids::storage
