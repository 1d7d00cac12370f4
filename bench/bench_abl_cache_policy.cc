// Ablation: cache-policy framework under skewed access (CACHING.md).
//
// Replays zipf-skewed seed traces (a deterministic popularity permutation
// of the training ids, inverse-CDF draws at theta = 0.6 / 1.0 / 1.2)
// through the five pluggable policies on a real SoftwareCache instance,
// for both the neighborhood and LADIES samplers (512-node layers here —
// small enough that the layer draws track the seed frontier, so the seed
// skew actually reaches the access stream; at fig15's 4096-node layers
// the draws are near-structural and skew-insensitive). Each policy runs
// its
// natural stack: random = BaM bare cache; window adds depth-8 future
// pinning; pagerank adds the structural hot buffer; belady consumes the
// window look-ahead feed; presample ranks both the hot buffer and the
// admission priorities from a bounded presample pass over the SAME skew
// it will then serve. The headline claim (ISSUE 8): the presample
// policy's combined hit rate matches or beats the PageRank hot buffer on
// zipf >= 1.0 workloads, because it observes the actual access skew
// instead of approximating it structurally.
//
// A second benchmark runs the two ranked policies end-to-end through the
// GIDS loader on a zipf-skewed seed multiset (virtual-time ms/iter and
// gpu-cache hit ratio), exercising the loader-internal presample pass and
// live re-ranking.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <vector>

#include "bench/common.h"
#include "core/constant_cpu_buffer.h"
#include "storage/cache_policy.h"
#include "storage/software_cache.h"

namespace gids::bench {
namespace {

constexpr uint64_t kCachePages = 8192;      // matches bench_abl_eviction
constexpr uint64_t kHotBufferNodes = 16384;  // identical budget per policy
constexpr int kTraceIterations = 60;
constexpr int kPresamplePasses = 6;  // epoch repeats in the presample pass
constexpr int kWindowDepth = 8;
const std::vector<uint32_t> kLadiesLayers = {512, 512, 512};
const double kThetas[] = {0.6, 1.0, 1.2};

// Inverse-CDF zipf(theta) over ranks [0, n): rank r is drawn with
// probability proportional to 1/(r+1)^theta. Deterministic in its seed.
class ZipfDraw {
 public:
  ZipfDraw(size_t n, double theta, uint64_t seed) : rng_(seed), cdf_(n) {
    double acc = 0.0;
    for (size_t r = 0; r < n; ++r) {
      acc += 1.0 / std::pow(static_cast<double>(r + 1), theta);
      cdf_[r] = acc;
    }
  }

  size_t Next() {
    double u = rng_.UniformDouble() * cdf_.back();
    return static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  }

 private:
  Rng rng_;
  std::vector<double> cdf_;
};

// Zipf-skewed seed batches over `popularity` (hottest-first).
std::vector<std::vector<graph::NodeId>> DrawSeedBatches(
    const std::vector<graph::NodeId>& popularity, double theta,
    int iterations, uint32_t batch_size, uint64_t zipf_seed) {
  ZipfDraw draw(popularity.size(), theta, zipf_seed);
  std::vector<std::vector<graph::NodeId>> batches(
      iterations, std::vector<graph::NodeId>(batch_size));
  for (auto& batch : batches) {
    for (auto& v : batch) v = popularity[draw.Next()];
  }
  return batches;
}

// Per-iteration input-node traces from the rig's sampler over the given
// seed batches. `iteration_base` selects the per-iteration sampler RNG
// streams: the presample pass reuses the training epoch's seed sequence
// (FGNN pre-samples the actual epoch) but runs on a disjoint iteration
// window, so its sampled pages are a fresh draw, not a page-level oracle
// of the measured trace.
std::vector<std::vector<graph::NodeId>> SampleTrace(
    Rig& rig, const std::vector<std::vector<graph::NodeId>>& seed_batches,
    uint64_t iteration_base) {
  std::vector<std::vector<graph::NodeId>> trace(seed_batches.size());
  sampling::MiniBatch batch;
  for (size_t i = 0; i < seed_batches.size(); ++i) {
    rig.sampler->SampleAtInto(seed_batches[i], iteration_base + i, &batch);
    trace[i] = batch.input_nodes();
  }
  return trace;
}

// Replays `trace` through a SoftwareCache driven by a fresh policy of
// `kind`, with the policy's natural hot-buffer / window stack. Returns
// the combined hit rate: (CPU-buffer page hits + cache hits) / accesses.
double ReplayPolicy(const std::shared_ptr<const graph::Dataset>& dataset,
                    storage::CachePolicyKind kind,
                    const std::vector<std::vector<graph::NodeId>>& trace,
                    const std::vector<std::vector<graph::NodeId>>&
                        presample_trace) {
  const graph::FeatureStore& fs = dataset->features;
  auto policy = storage::MakeCachePolicy(kind);
  const uint64_t buffer_bytes =
      kHotBufferNodes * fs.feature_bytes_per_node();

  std::optional<core::ConstantCpuBuffer> buffer;
  if (kind == storage::CachePolicyKind::kPageRankHot) {
    policy->IngestHotRanking(CachedPageRankOrder(dataset));
    buffer = core::ConstantCpuBuffer::FromRanking(
        fs, policy->HotNodeRanking(), buffer_bytes);
  } else if (kind == storage::CachePolicyKind::kPresample) {
    std::vector<uint64_t> counts(dataset->graph.num_nodes(), 0);
    for (const auto& iter : presample_trace) {
      for (graph::NodeId v : iter) ++counts[v];
    }
    policy->IngestNodeFrequencies(counts, fs);
    buffer = core::ConstantCpuBuffer::FromRanking(
        fs, policy->HotNodeRanking(), buffer_bytes);
  }

  storage::SoftwareCache cache(kCachePages * fs.page_bytes(),
                               fs.page_bytes(), /*seed=*/3,
                               /*store_payloads=*/false, /*num_shards=*/0,
                               policy.get());
  const int window =
      kind == storage::CachePolicyKind::kRandom ? 0 : kWindowDepth;
  auto register_iter = [&](const std::vector<graph::NodeId>& nodes) {
    for (graph::NodeId v : nodes) {
      if (buffer && buffer->Contains(v)) continue;
      auto range = fs.PagesFor(v);
      for (uint64_t p = range.first; p <= range.last; ++p) {
        cache.AddFutureReuse(p, 1);
      }
    }
  };
  for (int ahead = 0; ahead < window && ahead < (int)trace.size(); ++ahead) {
    register_iter(trace[ahead]);
  }

  uint64_t accesses = 0;
  uint64_t cpu_hits = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    size_t incoming = i + window;
    if (window > 0 && incoming < trace.size()) {
      register_iter(trace[incoming]);
    }
    for (graph::NodeId v : trace[i]) {
      auto range = fs.PagesFor(v);
      for (uint64_t p = range.first; p <= range.last; ++p) {
        ++accesses;
        if (buffer && buffer->Contains(v)) {
          ++cpu_hits;
          continue;
        }
        if (!cache.Lookup(p)) cache.Insert(p);
      }
    }
  }
  return accesses == 0
             ? 0.0
             : static_cast<double>(cpu_hits + cache.stats().hits) /
                   static_cast<double>(accesses);
}

void BM_CachePolicyHitRates(benchmark::State& state) {
  const storage::CachePolicyKind kKinds[] = {
      storage::CachePolicyKind::kRandom,
      storage::CachePolicyKind::kWindow,
      storage::CachePolicyKind::kPageRankHot,
      storage::CachePolicyKind::kGinexBelady,
      storage::CachePolicyKind::kPresample,
  };
  ProxyConfig cfg;
  for (auto _ : state) {
    for (int s = 0; s < 2; ++s) {
      Rig rig = s == 0 ? BuildRig(cfg) : BuildLadiesRig(cfg, kLadiesLayers);
      const char* sampler_name = s == 0 ? "neighbor" : "ladies";
      std::vector<graph::NodeId> popularity = rig.dataset->train_ids;
      Rng perm_rng(0x506f70);
      Shuffle(popularity, perm_rng);
      for (int t = 0; t < 3; ++t) {
        const double theta = kThetas[t];
        // Disjoint per-(sampler, theta) iteration windows so sampler
        // streams never collide across traces sharing this rig.
        const uint64_t base = static_cast<uint64_t>(s * 3 + t) * 4096;
        auto seed_batches = DrawSeedBatches(popularity, theta,
                                            kTraceIterations,
                                            cfg.batch_size, 0xa11ce + t);
        auto trace = SampleTrace(rig, seed_batches, base);
        // The presample pass re-samples the epoch's seed sequence
        // kPresamplePasses times on fresh per-iteration RNG streams,
        // averaging out sampler noise in the frequency estimate.
        std::vector<std::vector<graph::NodeId>> tiled;
        for (int p = 0; p < kPresamplePasses; ++p) {
          tiled.insert(tiled.end(), seed_batches.begin(),
                       seed_batches.end());
        }
        auto presample_trace = SampleTrace(rig, tiled, base + 1024);
        double pagerank_hit = 0.0;
        double presample_hit = 0.0;
        for (storage::CachePolicyKind kind : kKinds) {
          double hit =
              ReplayPolicy(rig.dataset, kind, trace, presample_trace);
          char label[96];
          std::snprintf(label, sizeof(label), "%s zipf=%.1f %s hit rate",
                        sampler_name, theta,
                        storage::CachePolicyKindName(kind));
          ReportRow("ABL-CACHEPOLICY", label, hit, 0, "fraction");
          if (kind == storage::CachePolicyKind::kPageRankHot) {
            pagerank_hit = hit;
          } else if (kind == storage::CachePolicyKind::kPresample) {
            presample_hit = hit;
          }
        }
        if (theta >= 1.0) {
          char label[96];
          std::snprintf(label, sizeof(label),
                        "%s zipf=%.1f presample/pagerank", sampler_name,
                        theta);
          ReportRow("ABL-CACHEPOLICY", label, presample_hit / pagerank_hit,
                    1.0, "x");
        }
      }
    }
  }
}

BENCHMARK(BM_CachePolicyHitRates)->Iterations(1)->Unit(benchmark::kMillisecond);

// End-to-end: the two ranked policies through the real GIDS loader on a
// zipf(1.2)-skewed seed multiset (duplicates carry the skew through the
// epoch shuffles). The presample loader runs the loader-internal
// presample pass and live re-ranking (presample_rerank_groups).
void BM_CachePolicyE2E(benchmark::State& state) {
  ProxyConfig cfg;
  for (auto _ : state) {
    Rig base_rig = BuildRig(cfg);
    std::vector<graph::NodeId> popularity = base_rig.dataset->train_ids;
    Rng perm_rng(0x506f70);
    Shuffle(popularity, perm_rng);
    ZipfDraw draw(popularity.size(), 1.2, 0x51e7);
    std::vector<graph::NodeId> skewed(popularity.size());
    for (auto& v : skewed) v = popularity[draw.Next()];

    const storage::CachePolicyKind kKinds[] = {
        storage::CachePolicyKind::kPageRankHot,
        storage::CachePolicyKind::kPresample,
    };
    for (storage::CachePolicyKind kind : kKinds) {
      Rig rig = BuildRig(cfg);
      rig.seeds = std::make_unique<sampling::SeedIterator>(
          skewed, cfg.batch_size, 0x5eed);
      core::GidsOptions opts;
      opts.cache_policy = kind;
      opts.presample_rerank_groups = 4;
      auto loader = MakeLoader(LoaderKind::kGids, rig, &opts);
      auto result = RunProtocol(rig, *loader, /*warmup=*/40, /*measure=*/30);
      const char* name = storage::CachePolicyKindName(kind);
      char label[96];
      std::snprintf(label, sizeof(label), "%s ms/iter (zipf=1.2)", name);
      ReportRow("ABL-CACHEPOLICY-E2E", label, result.mean_iteration_ms(), 0,
                "ms/iter", result.wall_ms);
      std::snprintf(label, sizeof(label), "%s e2e hit ratio (zipf=1.2)",
                    name);
      ReportRow("ABL-CACHEPOLICY", label, result.gpu_cache_hit_ratio(), 0,
                "fraction");
    }
  }
}

BENCHMARK(BM_CachePolicyE2E)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gids::bench

BENCHMARK_MAIN();
