// Ablation: page-coalescing gather (DESIGN.md §10) across access skew and
// feature width.
//
// Sweeps zipf-like batch skew x feature_dim and replays identical batches
// through the gather path with coalescing off (every page access
// round-trips individually, the pre-coalescing behaviour) and on (one
// round-trip per distinct page per gather). Reports the storage-path
// round-trips each mode performs and the dedup ratio (folded requests /
// total requests). Skewed batches and sub-page features both raise the
// fold fraction: duplicates and page-mates collapse into one SSD read,
// the paper's §2 premise for GPU-side access coalescing.
//
// A determinism gate re-runs the coalescing sweep at host_threads
// {1, 4, 8} and checks the traffic counts are bit-identical before any
// row is reported.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/check.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "graph/feature_store.h"
#include "storage/bam_array.h"
#include "storage/feature_gather.h"
#include "storage/software_cache.h"
#include "storage/storage_array.h"

namespace gids::bench {
namespace {

constexpr graph::NodeId kNodes = 1 << 16;
constexpr size_t kBatch = 512;
constexpr int kIterations = 30;
constexpr uint64_t kCacheLines = 256;

// Zipf-like draw: node = floor(N * u^skew). skew=1 is uniform; larger
// skews concentrate mass on low node ids, modeling hub-heavy sampled
// batches.
std::vector<graph::NodeId> ZipfBatch(Rng& rng, double skew) {
  std::vector<graph::NodeId> nodes;
  nodes.reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) {
    double u = rng.UniformDouble();
    auto node = static_cast<graph::NodeId>(
        static_cast<double>(kNodes) * std::pow(u, skew));
    nodes.push_back(node < kNodes ? node : kNodes - 1);
  }
  return nodes;
}

struct SweepResult {
  storage::FeatureGatherCounts counts;
  uint64_t storage_array_reads = 0;
};

SweepResult RunSweep(uint32_t dim, double skew, bool coalesce,
                     ThreadPool* pool) {
  graph::FeatureStore fs(kNodes, dim);
  auto dev = std::make_unique<storage::FunctionBlockDevice>(
      fs.num_pages(), fs.page_bytes(),
      [&fs](uint64_t lba, std::span<std::byte> out) { fs.FillPage(lba, out); });
  storage::StorageArray array(std::move(dev), sim::SsdSpec::IntelOptane(), 1);
  storage::SoftwareCache cache(kCacheLines * fs.page_bytes(), fs.page_bytes(),
                               /*seed=*/0xcac4e, /*store_payloads=*/false,
                               /*num_shards=*/4);
  storage::BamArray bam(&array, &cache);
  storage::FeatureGatherer gatherer(&fs, &bam, /*hot_buffer=*/nullptr, pool,
                                    coalesce);
  // Same seed per configuration: both modes and every thread count replay
  // identical batches.
  Rng rng(static_cast<uint64_t>(dim) * 1000 +
          static_cast<uint64_t>(skew * 100));
  SweepResult result;
  for (int i = 0; i < kIterations; ++i) {
    auto nodes = ZipfBatch(rng, skew);
    storage::FeatureGatherCounts c;
    GIDS_CHECK(gatherer.Gather(nodes, {}, &c).ok());
    result.counts.Add(c);
  }
  result.storage_array_reads = array.total_reads();
  return result;
}

bool CountsEqual(const storage::FeatureGatherCounts& a,
                 const storage::FeatureGatherCounts& b) {
  return a.nodes == b.nodes && a.cpu_buffer_hits == b.cpu_buffer_hits &&
         a.gpu_cache_hits == b.gpu_cache_hits &&
         a.storage_reads == b.storage_reads &&
         a.coalesced_requests == b.coalesced_requests &&
         a.distinct_pages == b.distinct_pages;
}

void BM_Coalescing(benchmark::State& state) {
  const std::vector<double> skews = {1.0, 1.5, 2.5};
  const std::vector<uint32_t> dims = {128, 768, 1024};
  for (auto _ : state) {
    for (double skew : skews) {
      for (uint32_t dim : dims) {
        SweepResult off = RunSweep(dim, skew, /*coalesce=*/false, nullptr);
        SweepResult on = RunSweep(dim, skew, /*coalesce=*/true, nullptr);

        // Determinism gate: the coalescing sweep's traffic counts must be
        // bit-identical at every host thread count.
        for (uint32_t threads : {1u, 4u, 8u}) {
          ThreadPool pool(threads);
          SweepResult par = RunSweep(dim, skew, /*coalesce=*/true, &pool);
          GIDS_CHECK(CountsEqual(par.counts, on.counts));
          GIDS_CHECK(par.storage_array_reads == on.storage_array_reads);
        }

        // Both modes saw the same page-granular demand; coalescing only
        // reduces the serviced traffic.
        GIDS_CHECK(on.counts.total_page_requests() ==
                   off.counts.total_page_requests());
        GIDS_CHECK(on.counts.distinct_pages <=
                   off.counts.serviced_page_requests());

        const double total =
            static_cast<double>(on.counts.total_page_requests());
        const double dedup =
            total > 0
                ? static_cast<double>(on.counts.coalesced_requests) / total
                : 0.0;
        std::string cfg = "skew=" + std::to_string(skew).substr(0, 3) +
                          " dim=" + std::to_string(dim);
        ReportRow("ABL-COALESCE", cfg + " serviced pages uncoalesced",
                  static_cast<double>(off.counts.serviced_page_requests()), 0,
                  "pages");
        ReportRow("ABL-COALESCE", cfg + " serviced pages coalesced",
                  static_cast<double>(on.counts.serviced_page_requests()), 0,
                  "pages", -1.0, -1, dedup);
        ReportRow("ABL-COALESCE", cfg + " ssd reads saved",
                  static_cast<double>(off.storage_array_reads) -
                      static_cast<double>(on.storage_array_reads),
                  0, "reads", -1.0, -1, dedup);
        state.counters[cfg + " dedup"] = dedup;
      }
    }
    ReportRow("ABL-COALESCE",
              "coalesced counts bit-identical across host_threads {1,4,8}", 1,
              0, "bool");
  }
}

BENCHMARK(BM_Coalescing)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gids::bench

BENCHMARK_MAIN();
