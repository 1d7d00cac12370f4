// Host data-preparation parallelism sweep: runs the GIDS loader over the
// same workload with host_threads in {1, 2, 4, 8} and reports the host
// wall-clock time of the measured phase plus the speedup over the serial
// configuration.
//
// This is a *host* benchmark, not a paper figure: the paper's pipeline is
// GPU-initiated, but this repo's functional proxy prepares every
// iteration on the CPU. With more than one thread the pool samples the
// look-ahead in batches of host_threads iterations while the calling
// thread runs the one-pass gather (DESIGN.md §7); per-iteration RNG
// streams and in-order seeds keep the prepared batches bit-identical at
// every thread count. The bench asserts that invariant (a fingerprint
// over every mini-batch and its stats must match the serial run) before
// reporting any timing, so a speedup can never come from doing different
// work.
//
// Speedups scale with the cores actually available; on a single-core
// machine the sweep degenerates to ~1x, which is reported honestly.
//
// The sweep also enforces the zero-allocation hot-path contract
// (DESIGN.md §11): consumed batches are recycled, the workspace pool is
// prewarmed after warm-up, and every row reports `steady_state_allocs` —
// the pool-allocation delta across the measured phase — which
// tools/bench_compare.py requires to be exactly 0.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/common.h"
#include "common/check.h"
#include "common/workspace_pool.h"

namespace gids::bench {
namespace {

// 64-bit FNV-1a over the full content of a prepared iteration: seeds,
// every block's node/edge arrays, and the virtual-time stats. Any
// divergence between thread counts — ordering, sampling, cache behaviour
// — lands in this hash.
class Fingerprint {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xff;
      hash_ *= 0x100000001b3ull;
    }
  }

  void MixBatch(const loaders::LoaderBatch& lb) {
    for (auto s : lb.batch.seeds) Mix(s);
    for (const auto& block : lb.batch.blocks) {
      Mix(block.num_dst);
      for (auto n : block.src_nodes) Mix(n);
      for (auto e : block.edge_src) Mix(e);
      for (auto e : block.edge_dst) Mix(e);
    }
    const auto& st = lb.stats;
    Mix(static_cast<uint64_t>(st.sampling_ns));
    Mix(static_cast<uint64_t>(st.aggregation_ns));
    Mix(static_cast<uint64_t>(st.e2e_ns));
    Mix(st.gather.nodes);
    Mix(st.gather.cpu_buffer_hits);
    Mix(st.gather.gpu_cache_hits);
    Mix(st.gather.storage_reads);
    Mix(st.sampled_edges);
    Mix(st.input_nodes);
    Mix(st.merged_group);
  }

  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct SweepPoint {
  uint32_t host_threads;
  double wall_ms;
  uint64_t fingerprint;
  uint64_t steady_state_allocs;
};

SweepPoint RunPoint(const ProxyConfig& cfg, uint32_t host_threads,
                    uint64_t warmup, uint64_t measure) {
  // A fresh rig per point: the sampler and seed iterator are stateful, so
  // every thread count must start from the same initial state for the
  // fingerprints to be comparable.
  Rig rig = BuildRig(cfg);
  core::GidsOptions opts;
  opts.host_threads = host_threads;
  auto loader = MakeLoader(LoaderKind::kGids, rig, &opts);

  // Warm-up (outside the timed window, like RunProtocol) still feeds the
  // fingerprint: cache state after warm-up must match across thread
  // counts for the measured phase to be comparable at all. Consumed
  // batches are recycled back to the loader, and the workspace pool is
  // prewarmed after warm-up, so the measured phase exercises the
  // zero-allocation hot path (DESIGN.md §11); Recycle() is semantics-free,
  // so the fingerprints are unaffected.
  Fingerprint fp;
  for (uint64_t i = 0; i < warmup; ++i) {
    auto lb = loader->Next();
    GIDS_CHECK(lb.ok());
    fp.MixBatch(*lb);
    loader->Recycle(std::move(*lb));
  }
  WorkspacePool& ws_pool = WorkspacePool::Default();
  ws_pool.Prewarm();
  const uint64_t allocs_before = ws_pool.allocs_total();
  auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < measure; ++i) {
    auto lb = loader->Next();
    GIDS_CHECK(lb.ok());
    fp.MixBatch(*lb);
    loader->Recycle(std::move(*lb));
  }
  double wall_ms = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  return SweepPoint{host_threads, wall_ms, fp.value(),
                    ws_pool.allocs_total() - allocs_before};
}

void BM_HostParallelism(benchmark::State& state) {
  ProxyConfig cfg;
  cfg.spec = graph::DatasetSpec::IgbSmall();
  cfg.scale = 0.05;
  cfg.memory_scale = 0.05;
  cfg.batch_size = 1024;
  cfg.fanouts = {10, 5, 5};

  constexpr uint64_t kWarmup = 4;
  constexpr uint64_t kMeasure = 24;
  const std::vector<uint32_t> kThreadCounts = {1, 2, 4, 8};

  std::vector<SweepPoint> points;
  for (auto _ : state) {
    points.clear();
    for (uint32_t t : kThreadCounts) {
      points.push_back(RunPoint(cfg, t, kWarmup, kMeasure));
    }
  }

  // Determinism gate: every thread count must have produced bit-identical
  // batches and stats. A timing report over divergent work is meaningless.
  for (const SweepPoint& p : points) {
    GIDS_CHECK(p.fingerprint == points.front().fingerprint);
  }

  const double serial_ms = points.front().wall_ms;
  for (const SweepPoint& p : points) {
    double speedup = p.wall_ms > 0 ? serial_ms / p.wall_ms : 0.0;
    std::string label =
        "GIDS data prep, " + std::to_string(p.host_threads) + " threads";
    state.counters["t" + std::to_string(p.host_threads) + "_ms"] = p.wall_ms;
    ReportRow("HOSTPAR", label + " wall", p.wall_ms / kMeasure, 0, "ms/iter",
              p.wall_ms, static_cast<int>(p.host_threads), -1.0,
              static_cast<int64_t>(p.steady_state_allocs));
    ReportRow("HOSTPAR", label + " speedup vs serial", speedup, 0,
              "x (bounded by available cores)", p.wall_ms,
              static_cast<int>(p.host_threads));
    // Deterministic twin of the steady_state_allocs field above, baselined
    // at 0 in bench/baselines/seed.json so the zero-allocation contract is
    // also covered by the lost-row check: any allocation during the
    // measured phase — or the row disappearing — fails the gate.
    ReportRow("HOSTPAR", label + " steady-state allocs",
              static_cast<double>(p.steady_state_allocs), 0, "allocs", -1.0,
              static_cast<int>(p.host_threads), -1.0,
              static_cast<int64_t>(p.steady_state_allocs));
  }
  ReportRow("HOSTPAR", "batches bit-identical across thread counts", 1, 0,
            "bool");
}

BENCHMARK(BM_HostParallelism)->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace gids::bench

BENCHMARK_MAIN();
