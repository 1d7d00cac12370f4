// Concurrency hammering for the lock-striped SoftwareCache, the
// shard-keyed parallel FeatureGatherer, and per-call gather receipts on a
// shared StorageArray. These tests are built into the
// `concurrency`-labelled test binary so the tsan preset can run exactly
// this surface under ThreadSanitizer (see CMakePresets.json).
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "graph/feature_store.h"
#include "storage/bam_array.h"
#include "storage/fault_injector.h"
#include "storage/feature_gather.h"
#include "storage/page_integrity.h"
#include "storage/replica_set.h"
#include "storage/software_cache.h"
#include "storage/storage_array.h"

namespace gids::storage {
namespace {

// --- Sharded cache under concurrent metadata traffic. -----------------

// Disjoint page ranges per thread and a capacity that never evicts: every
// stat total is exactly predictable, so any lost update (a dropped hit, a
// double-counted insertion, a lost pin) shows up as a hard count mismatch,
// not just a tsan report.
TEST(CacheConcurrencyTest, DisjointHammerExactTotals) {
  constexpr uint32_t kThreads = 8;
  constexpr uint64_t kPagesPerThread = 256;
  constexpr uint32_t kLineBytes = 64;
  SoftwareCache cache(/*capacity_bytes=*/4096 * kLineBytes, kLineBytes,
                      /*seed=*/1, /*store_payloads=*/false,
                      /*num_shards=*/8);
  ASSERT_EQ(cache.num_shards(), 8u);

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      uint64_t base = static_cast<uint64_t>(t) * kPagesPerThread;
      for (uint64_t p = base; p < base + kPagesPerThread; ++p) {
        EXPECT_FALSE(cache.Lookup(p));  // cold miss
        EXPECT_TRUE(cache.Insert(p));
        EXPECT_TRUE(cache.Lookup(p));  // hit
        cache.AddFutureReuse(p, 2);
        EXPECT_TRUE(cache.Lookup(p));  // hit; consumes one of two reuses
      }
    });
  }
  for (auto& th : threads) th.join();

  const uint64_t total_pages = kThreads * kPagesPerThread;
  const CacheStats& stats = cache.stats();
  EXPECT_EQ(stats.lookups, total_pages * 3);
  EXPECT_EQ(stats.misses, total_pages);
  EXPECT_EQ(stats.hits, total_pages * 2);
  EXPECT_EQ(stats.insertions, total_pages);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.bypasses, 0u);
  EXPECT_EQ(cache.resident_lines(), total_pages);
  // Every page has exactly one reuse outstanding -> still pinned (USE).
  EXPECT_EQ(cache.pinned_lines(), total_pages);
  for (uint64_t p = 0; p < total_pages; ++p) {
    EXPECT_EQ(cache.FutureReuseCount(p), 1u);
  }
  cache.ClearFutureReuse();
  EXPECT_EQ(cache.pinned_lines(), 0u);
}

// Overlapping traffic: every page is touched by two threads. Individual
// hit/miss splits race, but the conservation laws must hold exactly.
TEST(CacheConcurrencyTest, OverlappingHammerConservesCounts) {
  constexpr uint32_t kThreads = 8;
  constexpr uint64_t kPages = 512;
  constexpr uint32_t kLineBytes = 64;
  SoftwareCache cache(/*capacity_bytes=*/1024 * kLineBytes, kLineBytes,
                      /*seed=*/2, /*store_payloads=*/false,
                      /*num_shards=*/4);

  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, t] {
      // Pair t with t^1: both walk the same page range, interleaved.
      uint64_t base = static_cast<uint64_t>(t / 2) * kPages;
      for (uint64_t p = base; p < base + kPages; ++p) {
        if (!cache.Lookup(p)) cache.Insert(p);
        cache.AddFutureReuse(p, 1);
        cache.Lookup(p);
      }
    });
  }
  for (auto& th : threads) th.join();

  const CacheStats& stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.lookups);
  // Each successful insertion either consumed a free slot (net +1
  // resident) or evicted a victim first (resident unchanged, +1
  // eviction); bypasses place nothing.
  EXPECT_EQ(stats.insertions, cache.resident_lines() + stats.evictions);
  // Capacity (1024 lines) covers all 2048 distinct pages' working set?
  // No: 4 pairs x 512 pages = 2048 distinct pages over 1024 lines, so
  // evictions and/or bypasses are expected; the counters must only be
  // consistent, and no line may end up with a negative/lost pin.
  EXPECT_LE(cache.pinned_lines(), cache.resident_lines());
  EXPECT_LE(cache.resident_lines(), cache.capacity_lines());
}

// Payload mode under concurrent Insert/Lookup: readers must never see
// torn lines — every successful lookup returns a byte pattern that some
// complete Insert wrote for that page.
TEST(CacheConcurrencyTest, LookupIntoNeverTears) {
  constexpr uint32_t kThreads = 8;
  constexpr uint32_t kLineBytes = 256;
  constexpr uint64_t kPages = 64;
  constexpr int kRounds = 200;
  SoftwareCache cache(/*capacity_bytes=*/128 * kLineBytes, kLineBytes,
                      /*seed=*/3, /*store_payloads=*/true,
                      /*num_shards=*/4);

  std::atomic<bool> torn{false};
  std::vector<std::thread> threads;
  for (uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &torn, t] {
      std::vector<std::byte> payload(kLineBytes);
      std::vector<std::byte> got(kLineBytes);
      for (int r = 0; r < kRounds; ++r) {
        uint64_t page = (t * 31 + r) % kPages;
        // The payload encodes only the page id, so two writers of the
        // same page write identical bytes; any mix of two lines is
        // detectable.
        std::byte fill = static_cast<std::byte>(page & 0xff);
        for (auto& b : payload) b = fill;
        cache.Insert(page, payload);
        uint64_t probe = (t * 17 + r * 3) % kPages;
        if (cache.Lookup(probe, got)) {
          std::byte want = static_cast<std::byte>(probe & 0xff);
          for (auto b : got) {
            if (b != want) torn.store(true);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_FALSE(torn.load());
}

// --- Parallel gather. --------------------------------------------------

struct GatherRig {
  GatherRig(uint32_t dim, graph::NodeId nodes, uint64_t cache_lines,
            uint32_t num_shards, ThreadPool* pool)
      : fs(nodes, dim) {
    auto dev = std::make_unique<FunctionBlockDevice>(
        fs.num_pages(), fs.page_bytes(),
        [this](uint64_t lba, std::span<std::byte> out) {
          fs.FillPage(lba, out);
        });
    array = std::make_unique<StorageArray>(std::move(dev),
                                           sim::SsdSpec::IntelOptane(), 1);
    cache = std::make_unique<SoftwareCache>(cache_lines * fs.page_bytes(),
                                            fs.page_bytes(), /*seed=*/0xcac4e,
                                            /*store_payloads=*/true,
                                            num_shards);
    bam = std::make_unique<BamArray>(array.get(), cache.get());
    gatherer =
        std::make_unique<FeatureGatherer>(&fs, bam.get(), nullptr, pool);
  }

  graph::FeatureStore fs;
  std::unique_ptr<StorageArray> array;
  std::unique_ptr<SoftwareCache> cache;
  std::unique_ptr<BamArray> bam;
  std::unique_ptr<FeatureGatherer> gatherer;
};

std::vector<graph::NodeId> MixedNodeList(graph::NodeId num_nodes,
                                         size_t count, uint64_t seed) {
  // Deterministic pseudo-random list with repeats and page-mates.
  std::vector<graph::NodeId> nodes;
  nodes.reserve(count);
  uint64_t x = seed;
  for (size_t i = 0; i < count; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    nodes.push_back(static_cast<graph::NodeId>((x >> 33) % num_nodes));
  }
  return nodes;
}

// The determinism contract end to end: a pooled gather over a multi-shard
// cache must produce byte-identical output AND identical cache/storage
// counts to the serial gather, across multiple iterations so cache state
// evolution matches too.
TEST(GatherConcurrencyTest, ParallelMatchesSerialBitForBit) {
  constexpr uint32_t kDim = 128;
  constexpr graph::NodeId kNodes = 4096;
  ThreadPool pool(8);
  GatherRig serial(kDim, kNodes, /*cache_lines=*/64, /*num_shards=*/4,
                   nullptr);
  GatherRig parallel(kDim, kNodes, /*cache_lines=*/64, /*num_shards=*/4,
                     &pool);

  for (int iter = 0; iter < 10; ++iter) {
    auto nodes = MixedNodeList(kNodes, 600, /*seed=*/1000 + iter);
    FeatureGatherCounts sc, pc;
    auto sout = serial.gatherer->Gather(nodes, &sc);
    auto pout = parallel.gatherer->Gather(nodes, &pc);
    ASSERT_TRUE(sout.ok());
    ASSERT_TRUE(pout.ok());
    ASSERT_EQ(*sout, *pout) << "iteration " << iter;
    EXPECT_EQ(sc.nodes, pc.nodes);
    EXPECT_EQ(sc.cpu_buffer_hits, pc.cpu_buffer_hits);
    EXPECT_EQ(sc.gpu_cache_hits, pc.gpu_cache_hits);
    EXPECT_EQ(sc.storage_reads, pc.storage_reads);
    const CacheStats& ss = serial.cache->stats();
    const CacheStats& ps = parallel.cache->stats();
    EXPECT_EQ(ss.hits, ps.hits);
    EXPECT_EQ(ss.misses, ps.misses);
    EXPECT_EQ(ss.insertions, ps.insertions);
    EXPECT_EQ(ss.evictions, ps.evictions);
    EXPECT_EQ(ss.bypasses, ps.bypasses);
    EXPECT_EQ(serial.array->total_reads(), parallel.array->total_reads());
  }
}

// Concurrent Gather *calls* on one gatherer (the prefetch task and an
// inline Next() never overlap in the loader, but the gatherer itself must
// stay memory-safe if hammered): byte fidelity per call is preserved even
// though counts interleave.
TEST(GatherConcurrencyTest, ConcurrentCallsStayByteCorrect) {
  constexpr uint32_t kDim = 64;
  constexpr graph::NodeId kNodes = 2048;
  ThreadPool pool(4);
  GatherRig rig(kDim, kNodes, /*cache_lines=*/32, /*num_shards=*/4, &pool);

  constexpr int kCallers = 4;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&rig, &mismatches, c] {
      std::vector<float> expected(rig.fs.feature_dim());
      for (int r = 0; r < 5; ++r) {
        auto nodes = MixedNodeList(kNodes, 200, /*seed=*/c * 100 + r);
        FeatureGatherCounts counts;
        auto out = rig.gatherer->Gather(nodes, &counts);
        if (!out.ok()) {
          mismatches.fetch_add(1);
          continue;
        }
        for (size_t i = 0; i < nodes.size(); ++i) {
          rig.fs.FillFeature(nodes[i], expected);
          for (uint32_t j = 0; j < rig.fs.feature_dim(); ++j) {
            if ((*out)[i * rig.fs.feature_dim() + j] != expected[j]) {
              mismatches.fetch_add(1);
            }
          }
        }
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// --- Per-call receipts on a shared storage array. ----------------------

// Faults, silent corruption caught by verify-on-read, and two dark
// devices behind 2-way replication: reads retry, repair, dead-letter and
// fail over, so every GatherReceipt field is exercised.
std::unique_ptr<StorageArray> ReceiptArray(const graph::FeatureStore& fs) {
  auto dev = std::make_unique<FunctionBlockDevice>(
      fs.num_pages(), fs.page_bytes(),
      [&fs](uint64_t lba, std::span<std::byte> out) { fs.FillPage(lba, out); });
  auto array = std::make_unique<StorageArray>(
      std::move(dev), sim::SsdSpec::IntelOptane(), /*n_ssd=*/4);
  FaultOptions faults;
  faults.fault_rate = 0.4;
  faults.corruption_rate = 0.05;
  faults.offline_devices = {1, 3};
  array->EnableFaultInjection(faults, RetryPolicy{});
  IntegrityOptions integrity;
  integrity.verify_reads = true;
  array->EnableIntegrity(integrity);
  ReplicaOptions replicas;
  replicas.replication_factor = 2;
  array->EnableReplication(replicas);
  return array;
}

// Runs a fixed sequence of two-slice GatherGroup calls through a gatherer
// stack of its own (cache, BamArray, pool) over `array`, and returns each
// call's receipt. `which` picks the node lists and the coalescing mode.
std::vector<GatherReceipt> ReceiptSequence(const graph::FeatureStore& fs,
                                           StorageArray* array, int which) {
  ThreadPool pool(2);
  SoftwareCache cache(/*capacity_bytes=*/32 * fs.page_bytes(),
                      fs.page_bytes(), /*seed=*/0xcac4e + which,
                      /*store_payloads=*/true, /*num_shards=*/4);
  BamArray bam(array, &cache);
  FeatureGatherer gatherer(&fs, &bam, /*hot_buffer=*/nullptr, &pool,
                           /*coalesce_pages=*/which == 1);
  std::vector<GatherReceipt> receipts;
  for (uint64_t call = 0; call < 6; ++call) {
    const uint64_t seed = 7000 + 100 * which + 2 * call;
    auto a = MixedNodeList(fs.num_nodes(), 150, seed);
    auto b = MixedNodeList(fs.num_nodes(), 150, seed + 1);
    std::vector<float> out_a(a.size() * fs.feature_dim());
    std::vector<float> out_b(b.size() * fs.feature_dim());
    std::vector<GatherSlice> slices = {{a, std::span<float>(out_a)},
                                       {b, std::span<float>(out_b)}};
    std::vector<FeatureGatherCounts> counts(2);
    GatherReceipt receipt;
    EXPECT_TRUE(gatherer.GatherGroup(slices, counts, &receipt).ok());
    receipts.push_back(receipt);
  }
  return receipts;
}

// Two gatherers share one storage array and gather concurrently. Each
// receipt bills exactly its own call's reads: it equals the receipt of
// the same call replayed alone on a fresh array, and together the
// receipts partition the shared array's process-wide totals.
TEST(GatherReceiptConcurrencyTest, SharedArrayReceiptsMatchSoloReplays) {
  graph::FeatureStore fs(2048, 64);
  auto shared = ReceiptArray(fs);
  std::vector<GatherReceipt> concurrent[2];
  std::thread t0([&] { concurrent[0] = ReceiptSequence(fs, shared.get(), 0); });
  std::thread t1([&] { concurrent[1] = ReceiptSequence(fs, shared.get(), 1); });
  t0.join();
  t1.join();

  GatherReceipt total;
  for (int which = 0; which < 2; ++which) {
    auto solo_array = ReceiptArray(fs);
    std::vector<GatherReceipt> solo =
        ReceiptSequence(fs, solo_array.get(), which);
    ASSERT_EQ(concurrent[which].size(), solo.size());
    for (size_t call = 0; call < solo.size(); ++call) {
      const GatherReceipt& r = concurrent[which][call];
      EXPECT_TRUE(r == solo[call]) << "gatherer " << which << " call " << call;
      total.retry_penalty_ns += r.retry_penalty_ns;
      total.crc_verify_ns += r.crc_verify_ns;
      total.degraded_penalty_ns += r.degraded_penalty_ns;
      total.failovers += r.failovers;
    }
  }
  EXPECT_GT(total.crc_verify_ns, 0);
  EXPECT_GT(total.degraded_penalty_ns, 0);
  EXPECT_GT(total.failovers, 0u);
  EXPECT_EQ(static_cast<uint64_t>(total.retry_penalty_ns),
            shared->retry_penalty_ns_total());
  EXPECT_EQ(static_cast<uint64_t>(total.crc_verify_ns),
            shared->crc_verify_ns_total());
  EXPECT_EQ(static_cast<uint64_t>(total.degraded_penalty_ns),
            shared->degraded_penalty_ns_total());
  EXPECT_EQ(total.failovers, shared->replica_failovers_total());
}

}  // namespace
}  // namespace gids::storage
