// Conformance suite for the pluggable cache-policy framework
// (CACHING.md): every CachePolicyKind is driven through the same
// contract — deterministic victim streams per seed, equivalence of the
// null-policy default with an explicit RandomEvictionPolicy, pin and
// quarantine survival under eviction pressure, loader-level bit-identity
// across host_threads, presample re-rank reproducibility, and the
// multi-GPU shared-policy mode. Built standalone (label: cachepolicy) so
// tools/check.sh can run it under ASan and the tsan preset alongside the
// concurrency tests.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "core/gids_loader.h"
#include "core/multi_gpu.h"
#include "storage/cache_policy.h"
#include "storage/software_cache.h"
#include "tests/test_util.h"

namespace gids::storage {
namespace {

using gids::testing::LoaderRig;

const CachePolicyKind kAllKinds[] = {
    CachePolicyKind::kRandom,        CachePolicyKind::kWindow,
    CachePolicyKind::kPageRankHot,   CachePolicyKind::kGinexBelady,
    CachePolicyKind::kPresample,
};

void ExpectPolicyStatsEqual(const CachePolicyStats& a,
                            const CachePolicyStats& b, const char* what) {
  EXPECT_EQ(a.victim_requests, b.victim_requests) << what;
  EXPECT_EQ(a.victims, b.victims) << what;
  EXPECT_EQ(a.probe_skips, b.probe_skips) << what;
  EXPECT_EQ(a.bypasses, b.bypasses) << what;
  EXPECT_EQ(a.admit_rejects, b.admit_rejects) << what;
  EXPECT_EQ(a.rank_ingests, b.rank_ingests) << what;
  EXPECT_EQ(a.rerank_rounds, b.rerank_rounds) << what;
  EXPECT_EQ(a.ranked_nodes, b.ranked_nodes) << what;
  EXPECT_EQ(a.ranked_pages, b.ranked_pages) << what;
  EXPECT_EQ(a.future_ingests, b.future_ingests) << what;
}

TEST(CachePolicyKindTest, NameParseRoundTrip) {
  for (CachePolicyKind kind : kAllKinds) {
    CachePolicyKind parsed;
    ASSERT_TRUE(ParseCachePolicyKind(CachePolicyKindName(kind), &parsed))
        << CachePolicyKindName(kind);
    EXPECT_EQ(parsed, kind);
  }
  CachePolicyKind parsed;
  EXPECT_FALSE(ParseCachePolicyKind("lru", &parsed));
  EXPECT_FALSE(ParseCachePolicyKind("", &parsed));
}

// A fixed mixed access stream (reuse registrations + touches + inserts)
// against a small cache hosting `policy`. Pure function of (policy
// behavior, seed, shards) — the backbone of the determinism checks.
CacheStats DriveStream(CachePolicy* policy, uint64_t seed,
                       uint32_t num_shards) {
  SoftwareCache cache(/*capacity_bytes=*/64 * 4096, /*line_bytes=*/4096,
                      seed, /*store_payloads=*/false, num_shards, policy);
  Rng rng(77);
  for (int i = 0; i < 4000; ++i) {
    uint64_t page = rng.UniformInt(400);
    if (i % 3 == 0) cache.AddFutureReuse(page, 1);
    if (!cache.Lookup(page)) cache.Insert(page);
  }
  return cache.stats();
}

void ExpectCacheStatsEqual(const CacheStats& a, const CacheStats& b,
                           const char* what) {
  EXPECT_EQ(a.lookups, b.lookups) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.insertions, b.insertions) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.pinned_probe_skips, b.pinned_probe_skips) << what;
  EXPECT_EQ(a.bypasses, b.bypasses) << what;
}

// Same seed, fresh policy instances: the victim stream and every derived
// counter must reproduce exactly, for every policy kind.
TEST(CachePolicyContractTest, DeterministicPerSeed) {
  for (CachePolicyKind kind : kAllKinds) {
    auto p1 = MakeCachePolicy(kind);
    auto p2 = MakeCachePolicy(kind);
    CacheStats s1 = DriveStream(p1.get(), /*seed=*/9, /*num_shards=*/4);
    CacheStats s2 = DriveStream(p2.get(), /*seed=*/9, /*num_shards=*/4);
    ExpectCacheStatsEqual(s1, s2, CachePolicyKindName(kind));
    ExpectPolicyStatsEqual(p1->stats(), p2->stats(),
                           CachePolicyKindName(kind));
    EXPECT_GT(p1->stats().victim_requests, 0u) << CachePolicyKindName(kind);
  }
}

// The default (null) policy is an owned RandomEvictionPolicy and must be
// indistinguishable from an explicit external one — the pre-framework
// eviction stream, bit for bit.
TEST(CachePolicyContractTest, NullPolicyMatchesExplicitRandom) {
  for (uint32_t shards : {1u, 4u}) {
    RandomEvictionPolicy explicit_policy;
    CacheStats with_null = DriveStream(nullptr, /*seed=*/5, shards);
    CacheStats with_explicit =
        DriveStream(&explicit_policy, /*seed=*/5, shards);
    ExpectCacheStatsEqual(with_null, with_explicit, "null vs explicit");
  }
}

// Window-pinned (USE) lines survive eviction pressure under every
// policy: pinned lines are never victim candidates (PR 4/5 contract).
TEST(CachePolicyContractTest, PinnedLinesSurviveEvictionPressure) {
  for (CachePolicyKind kind : kAllKinds) {
    auto policy = MakeCachePolicy(kind);
    SoftwareCache cache(/*capacity_bytes=*/8 * 4096, /*line_bytes=*/4096,
                        /*seed=*/3, /*store_payloads=*/false,
                        /*num_shards=*/1, policy.get());
    for (uint64_t p = 1; p <= 4; ++p) {
      cache.AddFutureReuse(p, 1);
      ASSERT_TRUE(cache.Insert(p)) << CachePolicyKindName(kind);
    }
    for (uint64_t p = 100; p < 140; ++p) cache.Insert(p);
    for (uint64_t p = 1; p <= 4; ++p) {
      EXPECT_TRUE(cache.Lookup(p))
          << CachePolicyKindName(kind) << " lost pinned page " << p;
    }
  }
}

// Corrupt-hinted lines quarantine at the verify-hit point under every
// policy, and the cache keeps serving afterwards (PR 4 carry).
TEST(CachePolicyContractTest, QuarantineSurvivesPolicySwap) {
  for (CachePolicyKind kind : kAllKinds) {
    auto policy = MakeCachePolicy(kind);
    SoftwareCache cache(/*capacity_bytes=*/8 * 4096, /*line_bytes=*/4096,
                        /*seed=*/3, /*store_payloads=*/false,
                        /*num_shards=*/1, policy.get());
    cache.EnableIntegrity(/*checksummer=*/nullptr, /*verify_fill=*/false,
                          /*verify_hit=*/true);
    ASSERT_TRUE(cache.Insert(7, {}, std::nullopt, /*corrupt_hint=*/true));
    EXPECT_FALSE(cache.Lookup(7)) << CachePolicyKindName(kind);
    EXPECT_EQ(cache.stats().quarantines, 1u) << CachePolicyKindName(kind);
    ASSERT_TRUE(cache.Insert(7));
    EXPECT_TRUE(cache.Lookup(7)) << CachePolicyKindName(kind);
  }
}

// Belady semantics on a hand-built shard: the victim is the evictable
// line with the farthest next registered use (never-registered wins),
// and admission is refused when the incoming page is used even later.
TEST(GinexBeladyPolicyTest, FarthestNextUseWinsAndColdIncomingIsRejected) {
  struct FakeView final : CachePolicy::ShardLineView {
    std::vector<uint64_t> pages;
    std::vector<bool> evict;
    size_t num_lines() const override { return pages.size(); }
    bool evictable(size_t slot) const override { return evict[slot]; }
    uint64_t page(size_t slot) const override { return pages[slot]; }
  };

  GinexBeladyPolicy policy;
  auto state = policy.MakeShardState(0, /*shard_seed=*/1, /*num_lines=*/3);
  // Future order: page 10 at seq 0, page 20 at seq 1, page 30 at seq 2.
  policy.IngestFutureAccess(10);
  policy.IngestFutureAccess(20);
  policy.IngestFutureAccess(30);

  FakeView view;
  view.pages = {10, 20, 30};
  view.evict = {true, true, true};
  uint64_t skips = 0;

  // Incoming page 10 (next use seq 0): victim is page 30 (farthest).
  size_t victim =
      policy.SelectVictim(*state, view, /*incoming_page=*/10, 4, &skips);
  EXPECT_EQ(victim, 2u);
  EXPECT_EQ(skips, 0u);  // Belady scans, it does not probe

  // Incoming page 99 was never registered (infinitely far): admission
  // control refuses it rather than evicting a sooner-reused resident.
  victim = policy.SelectVictim(*state, view, /*incoming_page=*/99, 4, &skips);
  EXPECT_EQ(victim, CachePolicy::kNoVictim);
  EXPECT_GE(policy.stats().admit_rejects, 1u);

  // Pinned lines are not candidates: with 30 pinned, 20 is farthest.
  view.evict = {true, true, false};
  victim = policy.SelectVictim(*state, view, /*incoming_page=*/10, 4, &skips);
  EXPECT_EQ(victim, 1u);
}

// The presample ranking orders by observed count (desc, id asc) and page
// priorities sum member-node counts; re-ingestion swaps tables and books
// a re-rank round.
TEST(PresamplePolicyTest, FrequencyRankingAndRerank) {
  LoaderRig rig;
  const graph::FeatureStore& fs = rig.dataset->features;
  PresamplePolicy policy;
  std::vector<uint64_t> counts(rig.dataset->graph.num_nodes(), 0);
  counts[3] = 10;
  counts[5] = 25;
  counts[9] = 10;
  policy.IngestNodeFrequencies(counts, fs);

  std::vector<graph::NodeId> ranking = policy.HotNodeRanking();
  ASSERT_EQ(ranking.size(), counts.size());  // full permutation
  EXPECT_EQ(ranking[0], 5u);
  EXPECT_EQ(ranking[1], 3u);  // tie with 9 breaks toward the lower id
  EXPECT_EQ(ranking[2], 9u);
  EXPECT_TRUE(policy.ProvidesHotRanking());
  EXPECT_GT(policy.PagePriority(fs.PagesFor(5).first), 0u);
  EXPECT_EQ(policy.stats().rank_ingests, 1u);
  EXPECT_EQ(policy.stats().rerank_rounds, 0u);

  counts[3] = 100;  // drift: node 3 overtakes node 5
  policy.IngestNodeFrequencies(counts, fs);
  EXPECT_EQ(policy.HotNodeRanking()[0], 3u);
  EXPECT_EQ(policy.stats().rank_ingests, 2u);
  EXPECT_EQ(policy.stats().rerank_rounds, 1u);
}

struct LoaderCapture {
  std::vector<sampling::MiniBatch> batches;
  std::vector<loaders::IterationStats> stats;
  CachePolicyStats policy_stats;
};

LoaderCapture RunLoader(CachePolicyKind kind, uint32_t host_threads,
                        uint32_t cache_shards, int iterations,
                        uint32_t rerank_groups = 0) {
  LoaderRig rig;
  core::GidsOptions opts;
  opts.cache_policy = kind;
  opts.host_threads = host_threads;
  opts.cache_shards = cache_shards;
  opts.presample_iterations = 8;
  opts.presample_rerank_groups = rerank_groups;
  core::GidsLoader loader(rig.dataset.get(), rig.sampler.get(),
                          rig.seeds.get(), rig.system.get(), opts);
  LoaderCapture cap;
  for (int i = 0; i < iterations; ++i) {
    auto lb = loader.Next();
    GIDS_CHECK(lb.ok());
    cap.batches.push_back(lb->batch);
    cap.stats.push_back(lb->stats);
  }
  cap.policy_stats = loader.cache_policy().stats();
  return cap;
}

void ExpectCapturesEqual(const LoaderCapture& a, const LoaderCapture& b,
                         const char* what) {
  ASSERT_EQ(a.batches.size(), b.batches.size()) << what;
  for (size_t i = 0; i < a.batches.size(); ++i) {
    EXPECT_EQ(a.batches[i].seeds, b.batches[i].seeds) << what << " it " << i;
    EXPECT_EQ(a.batches[i].input_nodes(), b.batches[i].input_nodes())
        << what << " it " << i;
    EXPECT_EQ(a.stats[i].e2e_ns, b.stats[i].e2e_ns) << what << " it " << i;
    EXPECT_EQ(a.stats[i].gather.gpu_cache_hits,
              b.stats[i].gather.gpu_cache_hits)
        << what << " it " << i;
    EXPECT_EQ(a.stats[i].gather.cpu_buffer_hits,
              b.stats[i].gather.cpu_buffer_hits)
        << what << " it " << i;
    EXPECT_EQ(a.stats[i].gather.storage_reads, b.stats[i].gather.storage_reads)
        << what << " it " << i;
  }
  ExpectPolicyStatsEqual(a.policy_stats, b.policy_stats, what);
}

// Loader-level bit-identity: for every policy kind, batches, virtual
// times, gather outcomes, and the policy's own decision counters are
// identical across host_threads at a fixed shard count (the per-shard
// canonical replay of DESIGN.md §7 extends to every policy).
TEST(CachePolicyLoaderTest, BitIdenticalAcrossHostThreads) {
  constexpr int kIterations = 20;
  for (CachePolicyKind kind : kAllKinds) {
    LoaderCapture serial = RunLoader(kind, /*host_threads=*/1,
                                     /*cache_shards=*/2, kIterations);
    LoaderCapture parallel = RunLoader(kind, /*host_threads=*/4,
                                       /*cache_shards=*/2, kIterations);
    ExpectCapturesEqual(serial, parallel, CachePolicyKindName(kind));
  }
}

// Changing the shard count re-partitions the victim streams (cache
// totals may legitimately differ) but never perturbs the sampled batches
// or the CPU-buffer outcomes, which are decided before the cache.
TEST(CachePolicyLoaderTest, BatchesIndependentOfShardCount) {
  constexpr int kIterations = 12;
  for (CachePolicyKind kind : kAllKinds) {
    LoaderCapture one = RunLoader(kind, /*host_threads=*/1,
                                  /*cache_shards=*/1, kIterations);
    LoaderCapture four = RunLoader(kind, /*host_threads=*/1,
                                   /*cache_shards=*/4, kIterations);
    ASSERT_EQ(one.batches.size(), four.batches.size());
    for (size_t i = 0; i < one.batches.size(); ++i) {
      EXPECT_EQ(one.batches[i].seeds, four.batches[i].seeds)
          << CachePolicyKindName(kind) << " it " << i;
      EXPECT_EQ(one.batches[i].input_nodes(), four.batches[i].input_nodes())
          << CachePolicyKindName(kind) << " it " << i;
      EXPECT_EQ(one.stats[i].gather.cpu_buffer_hits,
                four.stats[i].gather.cpu_buffer_hits)
          << CachePolicyKindName(kind) << " it " << i;
    }
  }
}

// Live re-ranking is part of the deterministic replay: two identical
// presample loaders with periodic re-ranks produce identical results,
// and the re-ranks actually happen.
TEST(CachePolicyLoaderTest, PresampleRerankIsReproducible) {
  constexpr int kIterations = 24;
  LoaderCapture a = RunLoader(CachePolicyKind::kPresample, 1, 2, kIterations,
                              /*rerank_groups=*/2);
  LoaderCapture b = RunLoader(CachePolicyKind::kPresample, 1, 2, kIterations,
                              /*rerank_groups=*/2);
  ExpectCapturesEqual(a, b, "presample rerank");
  EXPECT_GT(a.policy_stats.rank_ingests, 1u);
  EXPECT_GT(a.policy_stats.rerank_rounds, 0u);
}

// The multi-GPU shared-policy mode: one policy instance across every
// GPU's cache is deterministic and actually exercised (the shared stats
// snapshot books the fleet's decisions).
TEST(CachePolicyMultiGpuTest, SharedPolicyIsDeterministic) {
  LoaderRig rig;
  for (CachePolicyKind kind :
       {CachePolicyKind::kPageRankHot, CachePolicyKind::kPresample}) {
    core::MultiGpuOptions options;
    options.num_gpus = 2;
    options.share_cache_policy = true;
    options.loader.cache_policy = kind;
    options.loader.presample_iterations = 8;
    auto r1 = core::RunMultiGpu(*rig.dataset, *rig.system, {5, 5}, 32, 10,
                                options);
    auto r2 = core::RunMultiGpu(*rig.dataset, *rig.system, {5, 5}, 32, 10,
                                options);
    ASSERT_TRUE(r1.ok() && r2.ok()) << CachePolicyKindName(kind);
    EXPECT_EQ(r1->total_ns, r2->total_ns) << CachePolicyKindName(kind);
    ExpectPolicyStatsEqual(r1->shared_policy_stats, r2->shared_policy_stats,
                           CachePolicyKindName(kind));
    EXPECT_GT(r1->shared_policy_stats.victim_requests, 0u)
        << CachePolicyKindName(kind);
    if (kind == CachePolicyKind::kPresample) {
      EXPECT_GE(r1->shared_policy_stats.rank_ingests, 1u);
    }
  }
}

}  // namespace
}  // namespace gids::storage
