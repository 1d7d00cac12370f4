// Randomized differential test: SoftwareCache against a simple reference
// model over long random op sequences (lookups, inserts, reuse
// registration, clearing). The reference tracks resident set, pin
// counters, and stats; any divergence is a bug in the cache's bookkeeping.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/random.h"
#include "storage/software_cache.h"

namespace gids::storage {
namespace {

// Reference model: mirrors the cache's *observable* contract, not its
// eviction choice (which is random): residency can only change as the
// cache reports, counters drain deterministically.
struct ReferenceModel {
  uint64_t capacity;
  std::set<uint64_t> resident;
  std::map<uint64_t, uint32_t> reuse;

  // Mirrors Lookup(): returns expected hit flag and drains one reuse.
  bool Lookup(uint64_t page) {
    bool hit = resident.count(page) > 0;
    auto it = reuse.find(page);
    if (it != reuse.end()) {
      if (--it->second == 0) reuse.erase(it);
    }
    return hit;
  }

  void OnInsertResult(uint64_t page, bool inserted) {
    if (inserted) resident.insert(page);
  }

  void OnEvictionsObserved(const SoftwareCache& cache) {
    // Remove anything the cache no longer holds.
    for (auto it = resident.begin(); it != resident.end();) {
      if (!cache.Contains(*it)) {
        it = resident.erase(it);
      } else {
        ++it;
      }
    }
  }
};

TEST(CacheFuzzTest, LongRandomOpSequenceStaysConsistent) {
  constexpr uint64_t kCapacity = 64;
  constexpr uint64_t kPageSpace = 256;
  SoftwareCache cache(kCapacity * 512, 512, /*seed=*/77,
                      /*store_payloads=*/false);
  ReferenceModel ref{kCapacity, {}, {}};
  Rng rng(99);

  for (int op = 0; op < 50000; ++op) {
    uint64_t page = rng.UniformInt(kPageSpace);
    switch (rng.UniformInt(10)) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4: {  // access (lookup + insert on miss), the gather path
        bool expect_hit = ref.Lookup(page);
        bool hit = cache.Lookup(page);
        ASSERT_EQ(hit, expect_hit) << "op " << op << " page " << page;
        if (!hit) {
          bool inserted = cache.Insert(page);
          ref.OnEvictionsObserved(cache);
          ref.OnInsertResult(page, inserted);
        }
        break;
      }
      case 5:
      case 6: {  // window registration
        uint32_t count = 1 + static_cast<uint32_t>(rng.UniformInt(3));
        cache.AddFutureReuse(page, count);
        ref.reuse[page] += count;
        break;
      }
      case 7: {  // consistency probes
        ASSERT_EQ(cache.Contains(page), ref.resident.count(page) > 0)
            << "op " << op;
        ASSERT_EQ(cache.FutureReuseCount(page),
                  ref.reuse.count(page) ? ref.reuse[page] : 0u)
            << "op " << op;
        break;
      }
      case 8: {  // global invariants
        ASSERT_LE(cache.resident_lines(), kCapacity);
        ASSERT_EQ(cache.resident_lines(), ref.resident.size());
        ASSERT_LE(cache.pinned_lines(), cache.resident_lines());
        break;
      }
      case 9: {  // occasionally drop all pins
        if (rng.UniformInt(50) == 0) {
          cache.ClearFutureReuse();
          ref.reuse.clear();
          ASSERT_EQ(cache.pinned_lines(), 0u);
        }
        break;
      }
    }
  }
  // Final full audit.
  ASSERT_EQ(cache.resident_lines(), ref.resident.size());
  for (uint64_t page : ref.resident) {
    ASSERT_TRUE(cache.Contains(page));
  }
  // Pinned lines are exactly resident pages with a positive counter.
  uint64_t expected_pinned = 0;
  for (const auto& [page, count] : ref.reuse) {
    if (count > 0 && ref.resident.count(page)) ++expected_pinned;
  }
  ASSERT_EQ(cache.pinned_lines(), expected_pinned);
}

TEST(CacheFuzzTest, HeavyPinningNeverDeadlocksInserts) {
  // Even when most of the page space is registered for reuse, the cache
  // must keep serving (bypassing when all probes hit pinned lines) and
  // never exceed capacity or crash.
  SoftwareCache cache(32 * 512, 512, /*seed=*/5, /*store_payloads=*/false);
  Rng rng(6);
  for (int op = 0; op < 20000; ++op) {
    uint64_t page = rng.UniformInt(64);
    cache.AddFutureReuse(page, 2);
    if (!cache.Lookup(page)) cache.Insert(page);
    ASSERT_LE(cache.resident_lines(), 32u);
  }
  EXPECT_GE(cache.stats().lookups, 20000u);
}

}  // namespace
}  // namespace gids::storage
