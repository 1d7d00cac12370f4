// Ablation: cache eviction policies on an identical sampled-access trace.
//
// Replays the same neighborhood-sampling page trace (IGB-Full proxy,
// 8 GB-scaled cache) through four policies:
//   - random eviction (BaM's default),
//   - random + window-buffer pinning (GIDS, depth 8),
//   - LRU (the OS page cache policy),
//   - Belady / MIN with full-trace look-ahead (offline optimal bound).
// This separates how much of GIDS's Fig. 11 gain comes from look-ahead
// pinning specifically, and how far it sits from the offline optimum.
#include <benchmark/benchmark.h>

#include <deque>

#include "bench/common.h"
#include "loaders/belady_cache.h"
#include "loaders/os_page_cache.h"
#include "storage/software_cache.h"

namespace gids::bench {
namespace {

// Per-iteration page traces from the real sampler; `*num_pages` receives
// the size of the page space they index.
std::vector<std::vector<uint64_t>> CollectTrace(int iterations,
                                                uint64_t* num_pages) {
  ProxyConfig cfg;
  cfg.spec = graph::DatasetSpec::IgbFull();
  Rig rig = BuildRig(cfg);
  *num_pages = rig.dataset->features.num_pages();
  std::vector<std::vector<uint64_t>> trace(iterations);
  for (int i = 0; i < iterations; ++i) {
    auto batch = rig.sampler->Sample(rig.seeds->NextBatch());
    for (graph::NodeId v : batch.input_nodes()) {
      auto range = rig.dataset->features.PagesFor(v);
      for (uint64_t p = range.first; p <= range.last; ++p) {
        trace[i].push_back(p);
      }
    }
  }
  return trace;
}

constexpr uint64_t kCachePages = 8192;  // 8 GB at 1/256 scale / 4 KiB

double RandomPolicy(const std::vector<std::vector<uint64_t>>& trace,
                    uint64_t num_pages, int window_depth) {
  storage::SoftwareCache cache(kCachePages * 4096, 4096, num_pages,
                               /*seed=*/3, /*store_payloads=*/false);
  // Window buffering: register `window_depth` iterations ahead.
  for (int ahead = 0; ahead < window_depth && ahead < (int)trace.size();
       ++ahead) {
    for (uint64_t p : trace[ahead]) cache.AddFutureReuse(p, 1);
  }
  for (size_t i = 0; i < trace.size(); ++i) {
    size_t incoming = i + window_depth;
    if (window_depth > 0 && incoming < trace.size()) {
      for (uint64_t p : trace[incoming]) cache.AddFutureReuse(p, 1);
    }
    for (uint64_t p : trace[i]) {
      if (!cache.Lookup(p)) cache.Insert(p);
    }
  }
  return cache.stats().HitRatio();
}

double LruPolicy(const std::vector<std::vector<uint64_t>>& trace) {
  loaders::OsPageCache cache(kCachePages);
  for (const auto& iter : trace) {
    for (uint64_t p : iter) cache.Access(p);
  }
  return static_cast<double>(cache.hits()) /
         static_cast<double>(cache.hits() + cache.faults());
}

double BeladyPolicy(const std::vector<std::vector<uint64_t>>& trace) {
  loaders::BeladyCache cache(kCachePages);
  auto result = cache.ProcessSuperbatch(trace);
  uint64_t hits = 0;
  uint64_t misses = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    hits += result.hits_per_iteration[i];
    misses += result.misses_per_iteration[i];
  }
  return static_cast<double>(hits) / static_cast<double>(hits + misses);
}

void BM_EvictionPolicies(benchmark::State& state) {
  double random = 0;
  double window = 0;
  double lru = 0;
  double belady = 0;
  for (auto _ : state) {
    uint64_t num_pages = 0;
    auto trace = CollectTrace(60, &num_pages);
    random = RandomPolicy(trace, num_pages, 0);
    window = RandomPolicy(trace, num_pages, 8);
    lru = LruPolicy(trace);
    belady = BeladyPolicy(trace);
  }
  state.counters["random"] = random;
  state.counters["window8"] = window;
  state.counters["lru"] = lru;
  state.counters["belady"] = belady;
  ReportRow("ABL-EVICT", "random eviction hit ratio", random, 0, "fraction");
  ReportRow("ABL-EVICT", "window depth=8 hit ratio", window, 0, "fraction");
  ReportRow("ABL-EVICT", "LRU hit ratio", lru, 0, "fraction");
  ReportRow("ABL-EVICT", "Belady (offline optimal) hit ratio", belady, 0,
            "fraction");
  ReportRow("ABL-EVICT", "window gain over random", window / random, 0, "x");
  ReportRow("ABL-EVICT", "headroom to offline optimal", belady / window, 0,
            "x");
}

BENCHMARK(BM_EvictionPolicies)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gids::bench

BENCHMARK_MAIN();
