// Determinism and fault-parity coverage for the page-coalescing gather
// path (DESIGN.md §10). These tests are compiled into the
// `coalescing`-labelled binary (run under asan-ubsan in tools/check.sh)
// AND into the `concurrency`-labelled binary so the tsan preset runs the
// loader-level host_threads cases under ThreadSanitizer. The gather
// against the per-shard replay it replaced is in gather_oracle_test.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/gids_loader.h"
#include "graph/feature_store.h"
#include "storage/fault_injector.h"
#include "storage/feature_gather.h"
#include "storage/software_cache.h"
#include "storage/storage_array.h"
#include "tests/test_util.h"

namespace gids::storage {
namespace {

struct CoalesceRig {
  CoalesceRig(uint32_t dim, graph::NodeId nodes, uint64_t cache_lines,
              uint32_t num_shards, bool coalesce,
              const FaultOptions* faults = nullptr,
              const RetryPolicy* retry = nullptr)
      : fs(nodes, dim) {
    auto dev = std::make_unique<FunctionBlockDevice>(
        fs.num_pages(), fs.page_bytes(),
        [this](uint64_t lba, std::span<std::byte> out) {
          fs.FillPage(lba, out);
        });
    array = std::make_unique<StorageArray>(std::move(dev),
                                           sim::SsdSpec::IntelOptane(), 1);
    if (faults != nullptr) {
      array->EnableFaultInjection(*faults, *retry);
    }
    cache = std::make_unique<SoftwareCache>(
        cache_lines * fs.page_bytes(), fs.page_bytes(), fs.num_pages(),
        /*seed=*/0xcac4e, /*store_payloads=*/true, num_shards);
    gatherer = std::make_unique<FeatureGatherer>(&fs, array.get(), cache.get(),
                                                 /*hot_buffer=*/nullptr,
                                                 coalesce);
  }

  graph::FeatureStore fs;
  std::unique_ptr<StorageArray> array;
  std::unique_ptr<SoftwareCache> cache;
  std::unique_ptr<FeatureGatherer> gatherer;
};

std::vector<graph::NodeId> SkewedNodeList(graph::NodeId num_nodes,
                                          size_t count, uint64_t seed) {
  // Deterministic pseudo-random list with plenty of repeats and
  // page-mates (half the draws come from a 1/16th hot set), so the
  // coalescing path actually folds work.
  std::vector<graph::NodeId> nodes;
  nodes.reserve(count);
  uint64_t x = seed;
  for (size_t i = 0; i < count; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    uint64_t draw = x >> 33;
    graph::NodeId range = (i % 2 == 0) ? num_nodes : num_nodes / 16 + 1;
    nodes.push_back(static_cast<graph::NodeId>(draw % range));
  }
  return nodes;
}

void ExpectCountsEqual(const FeatureGatherCounts& a,
                       const FeatureGatherCounts& b, int iter) {
  EXPECT_EQ(a.nodes, b.nodes) << "iteration " << iter;
  EXPECT_EQ(a.cpu_buffer_hits, b.cpu_buffer_hits) << "iteration " << iter;
  EXPECT_EQ(a.gpu_cache_hits, b.gpu_cache_hits) << "iteration " << iter;
  EXPECT_EQ(a.storage_reads, b.storage_reads) << "iteration " << iter;
  EXPECT_EQ(a.coalesced_requests, b.coalesced_requests)
      << "iteration " << iter;
  EXPECT_EQ(a.distinct_pages, b.distinct_pages) << "iteration " << iter;
  EXPECT_EQ(a.degraded_nodes, b.degraded_nodes) << "iteration " << iter;
  EXPECT_EQ(a.corrupt_nodes, b.corrupt_nodes) << "iteration " << iter;
}

// Coalescing changes the traffic books, never the bytes — and it drains
// window-buffer reuse pins exactly like the uncoalesced path (one
// coalesced service consumes all member registrations at once).
TEST(CoalescingDeterminismTest, MatchesUncoalescedPayloadAndPinDrain) {
  constexpr uint32_t kDim = 128;  // 8 nodes per page: node n -> page n/8
  constexpr graph::NodeId kNodes = 512;
  CoalesceRig on(kDim, kNodes, /*cache_lines=*/128, /*num_shards=*/1,
                 /*coalesce=*/true);
  CoalesceRig off(kDim, kNodes, /*cache_lines=*/128, /*num_shards=*/1,
                  /*coalesce=*/false);

  for (int round = 0; round < 5; ++round) {
    auto nodes = SkewedNodeList(kNodes, 200, /*seed=*/31 + round);
    // Register the window's future-reuse pins the way the loader does:
    // one registration per page-access.
    for (graph::NodeId n : nodes) {
      on.cache->AddFutureReuse(n / 8, 1);
      off.cache->AddFutureReuse(n / 8, 1);
    }
    FeatureGatherCounts oc, fc;
    auto oout = on.gatherer->Gather(nodes, &oc);
    auto fout = off.gatherer->Gather(nodes, &fc);
    ASSERT_TRUE(oout.ok());
    ASSERT_TRUE(fout.ok());
    ASSERT_EQ(*oout, *fout) << "round " << round;
    // Same demand, fewer serviced round-trips.
    EXPECT_EQ(oc.total_page_requests(), fc.total_page_requests());
    EXPECT_LT(oc.serviced_page_requests(), fc.serviced_page_requests());
    EXPECT_EQ(oc.distinct_pages, oc.serviced_page_requests());
    // Every registration consumed on both sides: no leaked pins.
    for (graph::NodeId n : nodes) {
      EXPECT_EQ(on.cache->FutureReuseCount(n / 8), 0u) << "round " << round;
      EXPECT_EQ(off.cache->FutureReuseCount(n / 8), 0u) << "round " << round;
    }
    EXPECT_EQ(on.cache->pinned_lines(), off.cache->pinned_lines());
  }
}

// A page that dead-letters degrades every row that shares it — the exact
// set the uncoalesced gather flags — and the counts agree on a sharded
// cache too.
TEST(CoalescingFaultTest, DegradedPageFansOutToAllSharingRows) {
  constexpr uint32_t kDim = 128;  // 8 nodes per page
  RetryPolicy rp;
  rp.max_retries = 1;
  FaultOptions fo;
  fo.fault_rate = 1.0;  // every attempt fails: all storage pages degrade
  // Rows 0,1,2,4 share page 0; row 3 is alone on page 1.
  std::vector<graph::NodeId> nodes = {0, 1, 2, 9, 1};

  CoalesceRig on(kDim, 512, 16, /*num_shards=*/1, true, &fo, &rp);
  CoalesceRig off(kDim, 512, 16, /*num_shards=*/1, false, &fo, &rp);
  CoalesceRig sharded(kDim, 512, 16, /*num_shards=*/4, true, &fo, &rp);

  FeatureGatherCounts oc, fc, sc;
  auto oout = on.gatherer->Gather(nodes, &oc);
  auto fout = off.gatherer->Gather(nodes, &fc);
  auto sout = sharded.gatherer->Gather(nodes, &sc);
  ASSERT_TRUE(oout.ok());
  ASSERT_TRUE(fout.ok());
  ASSERT_TRUE(sout.ok());
  // Every row is degraded in all three configurations.
  EXPECT_EQ(oc.degraded_nodes, nodes.size());
  EXPECT_EQ(fc.degraded_nodes, nodes.size());
  EXPECT_EQ(sc.degraded_nodes, nodes.size());
  EXPECT_EQ(oc.storage_reads, 0u);
  // The coalesced gather attempted each shared page once; the uncoalesced
  // gather re-attempted per row (nothing is cached on failure).
  EXPECT_EQ(on.array->dead_letters_total(), 2u);
  EXPECT_EQ(off.array->dead_letters_total(), nodes.size());
  EXPECT_EQ(sharded.array->dead_letters_total(), 2u);
  // Zero-fill contract holds for every row.
  for (float v : *oout) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(*oout, *fout);
  EXPECT_EQ(*oout, *sout);
}

// At a moderate fault rate the degraded set is a pure function of
// (seed, page, attempt), so coalesced fan-out must flag exactly the rows
// the uncoalesced gather's duplicate re-reads flag.
TEST(CoalescingFaultTest, ModerateFaultRateParityWithUncoalesced) {
  constexpr uint32_t kDim = 1024;  // node i occupies exactly page i
  RetryPolicy rp;
  rp.max_retries = 1;
  FaultOptions fo;
  fo.fault_rate = 0.4;
  CoalesceRig on(kDim, 64, 16, /*num_shards=*/1, true, &fo, &rp);
  CoalesceRig off(kDim, 64, 16, /*num_shards=*/1, false, &fo, &rp);

  for (int round = 0; round < 4; ++round) {
    auto nodes = SkewedNodeList(64, 120, /*seed=*/500 + round);
    FeatureGatherCounts oc, fc;
    auto oout = on.gatherer->Gather(nodes, &oc);
    auto fout = off.gatherer->Gather(nodes, &fc);
    ASSERT_TRUE(oout.ok());
    ASSERT_TRUE(fout.ok());
    ASSERT_EQ(*oout, *fout) << "round " << round;
    EXPECT_EQ(oc.degraded_nodes, fc.degraded_nodes) << "round " << round;
    EXPECT_EQ(oc.corrupt_nodes, fc.corrupt_nodes) << "round " << round;
    EXPECT_EQ(oc.total_page_requests(), fc.total_page_requests())
        << "round " << round;
  }
}

// --- End-to-end through the loader. -----------------------------------

std::vector<loaders::LoaderBatch> RunLoader(bool coalesce,
                                            uint32_t host_threads,
                                            int num_iterations,
                                            uint32_t cache_shards = 0) {
  gids::testing::LoaderRig rig;
  core::GidsOptions opts;
  opts.coalesce_pages = coalesce;
  opts.host_threads = host_threads;
  opts.cache_shards = cache_shards;
  core::GidsLoader loader(rig.dataset.get(), rig.sampler.get(),
                          rig.seeds.get(), rig.system.get(), opts);
  std::vector<loaders::LoaderBatch> out;
  for (int i = 0; i < num_iterations; ++i) {
    auto lb = loader.Next();
    GIDS_CHECK(lb.ok());
    out.push_back(std::move(*lb));
  }
  return out;
}

// host_threads must not change anything the loader delivers when
// coalescing is on (batches, features, stats — including the new
// coalesced/distinct counters).
TEST(CoalescingLoaderTest, HostThreadsDoNotChangeResults) {
  auto serial = RunLoader(/*coalesce=*/true, /*host_threads=*/1, 12);
  for (uint32_t threads : {4u, 8u}) {
    auto threaded = RunLoader(/*coalesce=*/true, threads, 12);
    ASSERT_EQ(serial.size(), threaded.size());
    for (size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].features, threaded[i].features)
          << "iteration " << i << " threads " << threads;
      EXPECT_EQ(serial[i].batch.seeds, threaded[i].batch.seeds)
          << "iteration " << i;
      ExpectCountsEqual(serial[i].stats.gather, threaded[i].stats.gather,
                        static_cast<int>(i));
      EXPECT_EQ(serial[i].stats.e2e_ns, threaded[i].stats.e2e_ns)
          << "iteration " << i;
    }
  }
}

// Thread count and shard count sweeps: for every cache geometry, every
// host_threads reproduces that geometry's one-thread run exactly.
TEST(CoalescingDeterminismTest, ThreadAndShardSweepsBitIdentical) {
  for (uint32_t shards : {1u, 4u, 8u}) {
    auto reference = RunLoader(/*coalesce=*/true, /*host_threads=*/1, 8,
                               shards);
    for (uint32_t threads : {4u, 8u}) {
      auto got = RunLoader(/*coalesce=*/true, threads, 8, shards);
      ASSERT_EQ(got.size(), reference.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].features, reference[i].features)
            << "threads=" << threads << " shards=" << shards << " iter " << i;
        ExpectCountsEqual(got[i].stats.gather, reference[i].stats.gather,
                          static_cast<int>(i));
        EXPECT_EQ(got[i].stats.e2e_ns, reference[i].stats.e2e_ns);
      }
    }
  }
}

// Coalescing changes the traffic accounting, never the delivered tensors:
// the same run with the flag off yields byte-identical features and the
// same page-granular demand.
TEST(CoalescingLoaderTest, FeaturesMatchUncoalescedRun) {
  auto off = RunLoader(/*coalesce=*/false, /*host_threads=*/1, 12);
  auto on = RunLoader(/*coalesce=*/true, /*host_threads=*/1, 12);
  ASSERT_EQ(off.size(), on.size());
  for (size_t i = 0; i < off.size(); ++i) {
    EXPECT_EQ(off[i].batch.seeds, on[i].batch.seeds) << "iteration " << i;
    EXPECT_EQ(off[i].features, on[i].features) << "iteration " << i;
    EXPECT_EQ(off[i].stats.gather.coalesced_requests, 0u);
    EXPECT_LE(on[i].stats.gather.serviced_page_requests(),
              off[i].stats.gather.serviced_page_requests())
        << "iteration " << i;
  }
}

}  // namespace
}  // namespace gids::storage
