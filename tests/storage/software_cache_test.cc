#include "storage/software_cache.h"

#include <gtest/gtest.h>

#include <optional>
#include <vector>

namespace gids::storage {
namespace {

std::vector<std::byte> Payload(uint32_t line_bytes, uint8_t fill) {
  return std::vector<std::byte>(line_bytes, std::byte{fill});
}

TEST(SoftwareCacheTest, MissThenHit) {
  SoftwareCache cache(4 * 64, 64);
  std::vector<std::byte> line(64);
  EXPECT_FALSE(cache.Lookup(7, line));
  auto p = Payload(64, 0xab);
  EXPECT_TRUE(cache.Insert(7, p));
  ASSERT_TRUE(cache.Lookup(7, line));
  EXPECT_EQ(line, p);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(SoftwareCacheTest, CapacityLines) {
  SoftwareCache cache(10 * 128 + 100, 128);
  EXPECT_EQ(cache.capacity_lines(), 10u);
}

TEST(SoftwareCacheTest, EvictsWhenFull) {
  SoftwareCache cache(4 * 64, 64, /*seed=*/1);
  for (uint64_t p = 0; p < 8; ++p) {
    EXPECT_TRUE(cache.Insert(p, Payload(64, static_cast<uint8_t>(p))));
  }
  EXPECT_EQ(cache.resident_lines(), 4u);
  EXPECT_EQ(cache.stats().evictions, 4u);
}

TEST(SoftwareCacheTest, ReinsertRefreshesPayload) {
  SoftwareCache cache(4 * 64, 64);
  ASSERT_TRUE(cache.Insert(1, Payload(64, 0x01)));
  ASSERT_TRUE(cache.Insert(1, Payload(64, 0x02)));
  EXPECT_EQ(cache.resident_lines(), 1u);
  std::vector<std::byte> line(64);
  ASSERT_TRUE(cache.Lookup(1, line));
  EXPECT_EQ(line, Payload(64, 0x02));
}

TEST(SoftwareCacheTest, PinnedLinesAreNeverEvicted) {
  // The window-buffering invariant (§3.4): lines in the USE state survive
  // arbitrary insertion pressure.
  SoftwareCache cache(8 * 64, 64, /*seed=*/2);
  for (uint64_t p = 0; p < 4; ++p) {
    cache.AddFutureReuse(p, 1);
    ASSERT_TRUE(cache.Insert(p, Payload(64, 0xaa)));
  }
  EXPECT_EQ(cache.pinned_lines(), 4u);
  // Hammer the cache with 200 other pages.
  for (uint64_t p = 100; p < 300; ++p) {
    cache.Insert(p, Payload(64, 0xbb));
  }
  for (uint64_t p = 0; p < 4; ++p) {
    EXPECT_TRUE(cache.Contains(p)) << "pinned page " << p << " was evicted";
  }
}

TEST(SoftwareCacheTest, ReuseCounterDrainsOnLookup) {
  SoftwareCache cache(8 * 64, 64);
  cache.AddFutureReuse(5, 2);
  ASSERT_TRUE(cache.Insert(5, Payload(64, 0x1)));
  EXPECT_EQ(cache.FutureReuseCount(5), 2u);
  EXPECT_EQ(cache.pinned_lines(), 1u);
  cache.Lookup(5);
  EXPECT_EQ(cache.FutureReuseCount(5), 1u);
  EXPECT_EQ(cache.pinned_lines(), 1u);  // still pinned
  cache.Lookup(5);
  EXPECT_EQ(cache.FutureReuseCount(5), 0u);
  EXPECT_EQ(cache.pinned_lines(), 0u);  // back to Safe-to-Evict
}

TEST(SoftwareCacheTest, ReuseRegisteredBeforeInsertionPins) {
  // Fig. 6 ordering: the window registers node IDs before their features
  // are fetched; insertion must pick up the pending counter.
  SoftwareCache cache(8 * 64, 64);
  cache.AddFutureReuse(9, 3);
  ASSERT_TRUE(cache.Insert(9, Payload(64, 0x9)));
  EXPECT_EQ(cache.pinned_lines(), 1u);
}

TEST(SoftwareCacheTest, FullyPinnedCacheBypassesInsertions) {
  SoftwareCache cache(2 * 64, 64, /*seed=*/3);
  cache.AddFutureReuse(0, 1);
  cache.AddFutureReuse(1, 1);
  ASSERT_TRUE(cache.Insert(0, Payload(64, 0)));
  ASSERT_TRUE(cache.Insert(1, Payload(64, 1)));
  EXPECT_FALSE(cache.Insert(2, Payload(64, 2)));
  EXPECT_GT(cache.stats().bypasses, 0u);
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(0));
  EXPECT_TRUE(cache.Contains(1));
}

TEST(SoftwareCacheTest, ClearFutureReuseUnpinsEverything) {
  SoftwareCache cache(4 * 64, 64);
  cache.AddFutureReuse(0, 5);
  ASSERT_TRUE(cache.Insert(0, Payload(64, 0)));
  EXPECT_EQ(cache.pinned_lines(), 1u);
  cache.ClearFutureReuse();
  EXPECT_EQ(cache.pinned_lines(), 0u);
  EXPECT_EQ(cache.FutureReuseCount(0), 0u);
}

TEST(SoftwareCacheTest, MetadataModeMatchesPayloadModeDecisions) {
  // Lookup/Insert with empty spans (counting mode) must make every
  // decision the payload calls make under the same seed and op sequence:
  // hits, placements, evictions, bypasses, multi-reuse pin drains, fill
  // rejects and hit-time quarantines. Fill verification on keeps corrupt
  // lines out; with it off they get in and verify_hit quarantines them.
  struct Verify {
    bool fill;
    bool hit;
  };
  for (Verify verify : {Verify{false, false}, Verify{true, true},
                        Verify{false, true}}) {
    SCOPED_TRACE(::testing::Message() << "verify_fill=" << verify.fill
                                      << " verify_hit=" << verify.hit);
    PageChecksummer cs(0xc3c32c);
    SoftwareCache with_data(16 * 64, 64, /*seed=*/42,
                            /*store_payloads=*/true);
    SoftwareCache meta_only(16 * 64, 64, /*seed=*/42,
                            /*store_payloads=*/false);
    with_data.EnableIntegrity(&cs, verify.fill, verify.hit);
    meta_only.EnableIntegrity(&cs, verify.fill, verify.hit);
    Rng rng(9);
    std::vector<std::byte> got(64);
    for (int i = 0; i < 4000; ++i) {
      const uint64_t page = rng.UniformInt(64);
      const uint64_t op = rng.UniformInt(20);
      if (op < 4) {
        const auto count = static_cast<uint32_t>(1 + rng.UniformInt(3));
        with_data.AddFutureReuse(page, count);
        meta_only.AddFutureReuse(page, count);
      } else if (op == 4) {
        ASSERT_EQ(with_data.Invalidate(page), meta_only.Invalidate(page))
            << "op " << i;
      } else {
        const auto reuses = static_cast<uint32_t>(1 + rng.UniformInt(3));
        const bool hit = with_data.Lookup(page, got, reuses);
        ASSERT_EQ(hit, meta_only.Lookup(page, {}, reuses)) << "op " << i;
        auto payload = Payload(64, static_cast<uint8_t>(page));
        if (hit && verify.hit) {
          ASSERT_EQ(got, payload) << "op " << i;  // never a corrupt line
        }
        if (!hit) {
          // About 5% of fills carry bytes served silently corrupt.
          const bool corrupt = rng.UniformInt(20) == 0;
          const uint32_t crc = cs.Checksum(page, payload);
          if (corrupt) payload[0] ^= std::byte{0xff};
          ASSERT_EQ(with_data.Insert(page, payload, crc, corrupt),
                    meta_only.Insert(page, {}, std::nullopt, corrupt))
              << "op " << i;
        }
      }
      ASSERT_TRUE(with_data.stats() == meta_only.stats()) << "op " << i;
      ASSERT_EQ(with_data.pinned_lines(), meta_only.pinned_lines())
          << "op " << i;
      ASSERT_EQ(with_data.resident_lines(), meta_only.resident_lines())
          << "op " << i;
    }
    // The op mix reaches every decision it compares.
    const CacheStats& stats = meta_only.stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_GT(stats.pinned_probe_skips, 0u);
    EXPECT_GT(stats.bypasses, 0u);
    EXPECT_EQ(stats.fill_rejects > 0, verify.fill);
    EXPECT_EQ(stats.quarantines > 0, verify.hit && !verify.fill);
  }
}

TEST(SoftwareCacheTest, HitRatioStat) {
  SoftwareCache cache(8 * 64, 64);
  cache.Insert(1, Payload(64, 1));
  cache.Lookup(1);  // hit
  cache.Lookup(2);  // miss
  cache.Lookup(1);  // hit
  EXPECT_NEAR(cache.stats().HitRatio(), 2.0 / 3.0, 1e-9);
}

TEST(SoftwareCacheTest, ResetStats) {
  SoftwareCache cache(8 * 64, 64);
  cache.Lookup(1);
  cache.ResetStats();
  EXPECT_EQ(cache.stats().lookups, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
}

TEST(SoftwareCacheTest, StressResidencyNeverExceedsCapacity) {
  SoftwareCache cache(32 * 64, 64, /*seed=*/5, /*store_payloads=*/false);
  Rng rng(6);
  for (int i = 0; i < 20000; ++i) {
    uint64_t page = rng.UniformInt(1000);
    if (!cache.Lookup(page)) cache.Insert(page);
    ASSERT_LE(cache.resident_lines(), cache.capacity_lines());
  }
}

class WindowPinStressTest : public ::testing::TestWithParam<int> {};

TEST_P(WindowPinStressTest, CounterConservation) {
  // Register K future uses, then access exactly K times: the counter must
  // be exactly zero afterwards (no leaks, no over-consumption).
  const int k = GetParam();
  SoftwareCache cache(64 * 64, 64, /*seed=*/7, /*store_payloads=*/false);
  cache.AddFutureReuse(3, k);
  cache.Insert(3);
  for (int i = 0; i < k; ++i) {
    EXPECT_TRUE(cache.Lookup(3));
    EXPECT_EQ(cache.FutureReuseCount(3), static_cast<uint32_t>(k - 1 - i));
  }
  EXPECT_EQ(cache.pinned_lines(), 0u);
  // Extra accesses must not underflow.
  EXPECT_TRUE(cache.Lookup(3));
  EXPECT_EQ(cache.FutureReuseCount(3), 0u);
}

INSTANTIATE_TEST_SUITE_P(Depths, WindowPinStressTest,
                         ::testing::Values(1, 2, 4, 8, 16));

}  // namespace
}  // namespace gids::storage
