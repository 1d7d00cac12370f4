#include "loaders/os_page_cache.h"

#include <gtest/gtest.h>

namespace gids::loaders {
namespace {

TEST(OsPageCacheTest, ColdAccessFaults) {
  OsPageCache cache(4);
  EXPECT_FALSE(cache.Access(1));
  EXPECT_EQ(cache.faults(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
}

TEST(OsPageCacheTest, WarmAccessHits) {
  OsPageCache cache(4);
  cache.Access(1);
  EXPECT_TRUE(cache.Access(1));
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(OsPageCacheTest, CapacityEnforced) {
  OsPageCache cache(3);
  for (uint64_t p = 0; p < 10; ++p) cache.Access(p);
  EXPECT_EQ(cache.resident_pages(), 3u);
}

TEST(OsPageCacheTest, LruEvictionOrder) {
  OsPageCache cache(2);
  cache.Access(1);
  cache.Access(2);
  cache.Access(1);  // 1 becomes MRU
  cache.Access(3);  // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
}

TEST(OsPageCacheTest, WorkingSetWithinCapacityNeverFaultsAgain) {
  OsPageCache cache(16);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t p = 0; p < 16; ++p) cache.Access(p);
  }
  EXPECT_EQ(cache.faults(), 16u);
  EXPECT_EQ(cache.hits(), 32u);
}

TEST(OsPageCacheTest, ScanLargerThanCapacityAlwaysFaults) {
  // Sequential scan over 2x capacity with LRU: zero hits (the classic
  // mmap thrashing regime of §2.3).
  OsPageCache cache(8);
  for (int round = 0; round < 3; ++round) {
    for (uint64_t p = 0; p < 16; ++p) cache.Access(p);
  }
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.faults(), 48u);
}

}  // namespace
}  // namespace gids::loaders
