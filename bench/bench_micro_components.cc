// Host-performance microbenchmarks of the core data structures (real
// wall-clock throughput of this library's code, not virtual-time results):
// software-cache operations, sampler throughput, R-MAT generation,
// reverse PageRank, Belady replay, and the event-driven SSD simulator.
// Useful for regression-tracking the implementation itself.
#include <benchmark/benchmark.h>

#include "common/random.h"
#include "graph/generator.h"
#include "graph/pagerank.h"
#include "loaders/belady_cache.h"
#include "loaders/os_page_cache.h"
#include "sampling/neighbor_sampler.h"
#include "sim/ssd_model.h"
#include "storage/software_cache.h"

namespace gids {
namespace {

void BM_SoftwareCacheLookupInsert(benchmark::State& state) {
  storage::SoftwareCache cache(
      static_cast<uint64_t>(state.range(0)) * 4096, 4096, /*seed=*/1,
      /*store_payloads=*/false);
  Rng rng(2);
  uint64_t space = state.range(0) * 8;  // 12.5% fits
  for (auto _ : state) {
    uint64_t page = rng.UniformInt(space);
    if (!cache.Lookup(page)) cache.Insert(page);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SoftwareCacheLookupInsert)->Arg(1 << 10)->Arg(1 << 16);

void BM_SoftwareCacheWithPinning(benchmark::State& state) {
  storage::SoftwareCache cache(4096 * 4096, 4096, 1, false);
  Rng rng(3);
  for (auto _ : state) {
    uint64_t page = rng.UniformInt(32768);
    cache.AddFutureReuse(page, 1);
    if (!cache.Lookup(page)) cache.Insert(page);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SoftwareCacheWithPinning);

void BM_OsPageCacheLru(benchmark::State& state) {
  loaders::OsPageCache cache(1 << 14);
  Rng rng(4);
  for (auto _ : state) {
    cache.Access(rng.UniformInt(1 << 17));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_OsPageCacheLru);

void BM_NeighborSampling(benchmark::State& state) {
  Rng rng(5);
  auto g = graph::GenerateRmat(1 << 17, 1 << 21, graph::RmatParams{}, rng);
  GIDS_CHECK(g.ok());
  sampling::NeighborSampler sampler(&*g, {.fanouts = {10, 5, 5}}, 6);
  std::vector<graph::NodeId> seeds;
  for (graph::NodeId v = 0; v < 64; ++v) seeds.push_back(v * 31);
  uint64_t edges = 0;
  for (auto _ : state) {
    auto batch = sampler.Sample(seeds);
    edges += batch.total_edges();
    benchmark::DoNotOptimize(batch);
  }
  state.SetItemsProcessed(static_cast<int64_t>(edges));
  state.counters["edges_per_batch"] =
      static_cast<double>(edges) / state.iterations();
}
BENCHMARK(BM_NeighborSampling);

void BM_RmatGeneration(benchmark::State& state) {
  const uint64_t edges = static_cast<uint64_t>(state.range(0));
  uint64_t seed = 7;
  for (auto _ : state) {
    Rng rng(seed++);
    auto g = graph::GenerateRmat(1 << 16, edges, graph::RmatParams{}, rng);
    GIDS_CHECK(g.ok());
    benchmark::DoNotOptimize(g->num_edges());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(edges));
}
BENCHMARK(BM_RmatGeneration)->Arg(1 << 18)->Arg(1 << 20)->Unit(benchmark::kMillisecond);

void BM_ReversePageRank(benchmark::State& state) {
  Rng rng(8);
  auto g = graph::GenerateRmat(1 << 16, 1 << 20, graph::RmatParams{}, rng);
  GIDS_CHECK(g.ok());
  graph::PageRankOptions opts;
  opts.max_iterations = 10;
  opts.tolerance = 0;  // fixed work per call
  for (auto _ : state) {
    auto score = graph::WeightedReversePageRank(*g, opts);
    benchmark::DoNotOptimize(score);
  }
  state.SetItemsProcessed(state.iterations() * 10 * (1 << 20));
  state.SetLabel("items = edge-updates");
}
BENCHMARK(BM_ReversePageRank)->Unit(benchmark::kMillisecond);

void BM_BeladyReplay(benchmark::State& state) {
  Rng rng(9);
  std::vector<std::vector<uint64_t>> trace(16);
  for (auto& iter : trace) {
    for (int i = 0; i < 4096; ++i) iter.push_back(rng.UniformInt(1 << 16));
  }
  for (auto _ : state) {
    loaders::BeladyCache cache(1 << 13);
    auto r = cache.ProcessSuperbatch(trace);
    benchmark::DoNotOptimize(r);
  }
  state.SetItemsProcessed(state.iterations() * 16 * 4096);
}
BENCHMARK(BM_BeladyReplay)->Unit(benchmark::kMillisecond);

void BM_SsdEventSimulation(benchmark::State& state) {
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  uint64_t seed = 10;
  for (auto _ : state) {
    sim::SsdModel model(sim::SsdSpec::IntelOptane(), seed++);
    auto r = model.SimulateClosedLoop(n, 1024);
    benchmark::DoNotOptimize(r.duration_ns);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(n));
}
BENCHMARK(BM_SsdEventSimulation)->Arg(1 << 14)->Arg(1 << 18)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gids

BENCHMARK_MAIN();
