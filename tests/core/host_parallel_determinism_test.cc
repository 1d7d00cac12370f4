// The host-parallelism determinism contract (DESIGN.md "Host
// parallelism"): the GIDS and BaM loaders must produce byte-identical
// mini-batches, features, per-iteration stats, and end-of-run cache and
// storage totals at every host_threads setting. Also the loader's
// lifecycle with a look-ahead sample batch in flight on the pool, and its
// recovery from a sampler exception.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/gids_loader.h"
#include "tests/test_util.h"

namespace gids::core {
namespace {

using gids::testing::LoaderRig;

struct RunCapture {
  std::vector<loaders::LoaderBatch> iterations;
  storage::CacheStats cache_stats;
  uint64_t storage_reads = 0;
  uint64_t doorbells = 0;
  size_t peak_lookahead = 0;
  int window_depth = 0;  // resolved
};

/// Forwards to the rig's sampler, can claim not to be concurrent-safe,
/// and checks what that claim promises: one call at a time, in strictly
/// increasing iterations.
class CheckedSampler : public sampling::Sampler {
 public:
  CheckedSampler(sampling::Sampler* inner, bool concurrent_safe)
      : inner_(inner), concurrent_safe_(concurrent_safe) {}
  std::string_view name() const override { return inner_->name(); }
  int num_layers() const override { return inner_->num_layers(); }
  bool concurrent_safe() const override { return concurrent_safe_; }
  void SampleAtInto(std::span<const graph::NodeId> seeds, uint64_t iteration,
                    sampling::MiniBatch* out) override {
    const int inside = ++inside_;
    if (!concurrent_safe_) {
      EXPECT_EQ(inside, 1) << "serial sampler called concurrently";
      EXPECT_TRUE(calls_ == 0 || iteration > last_iteration_)
          << "iteration " << iteration << " after " << last_iteration_;
      last_iteration_ = iteration;
    }
    inner_->SampleAtInto(seeds, iteration, out);
    ++calls_;
    --inside_;
  }

 private:
  sampling::Sampler* inner_;
  bool concurrent_safe_;
  std::atomic<int> inside_{0};
  std::atomic<uint64_t> calls_{0};
  uint64_t last_iteration_ = 0;
};

struct RunConfig {
  bool bam = false;
  uint32_t host_threads = 1;
  int window_depth = 8;
  /// On this rig 0.95 merges two or three iterations per group, and 0.5
  /// one.
  double accumulator_target = 0.95;
  bool concurrent_safe = true;
};

GidsOptions MakeOptions(const RunConfig& cfg) {
  GidsOptions opts = cfg.bam ? GidsOptions::Bam() : GidsOptions{};
  opts.host_threads = cfg.host_threads;
  opts.window_depth = cfg.window_depth;
  opts.accumulator_target = cfg.accumulator_target;
  return opts;
}

/// Records `loader`'s end-of-run state next to the iterations in `cap`.
void CaptureTotals(const GidsLoader& loader, RunCapture* cap) {
  cap->cache_stats = loader.cache().stats();
  cap->storage_reads = loader.storage_array().total_reads();
  cap->doorbells = loader.storage_array().doorbells();
  cap->peak_lookahead = loader.peak_lookahead();
  cap->window_depth = loader.window_depth();
}

RunCapture RunLoader(const RunConfig& cfg, int num_iterations) {
  // A fresh rig per run: sampler and seed iterator are stateful, and every
  // configuration must start from the same initial state.
  LoaderRig rig;
  CheckedSampler sampler(rig.sampler.get(), cfg.concurrent_safe);
  GidsLoader loader(rig.dataset.get(), &sampler, rig.seeds.get(),
                    rig.system.get(), MakeOptions(cfg));
  RunCapture cap;
  for (int i = 0; i < num_iterations; ++i) {
    auto lb = loader.Next();
    GIDS_CHECK(lb.ok());
    cap.iterations.push_back(std::move(*lb));
  }
  CaptureTotals(loader, &cap);
  return cap;
}

void ExpectBatchesEqual(const sampling::MiniBatch& a,
                        const sampling::MiniBatch& b, int iter) {
  EXPECT_EQ(a.seeds, b.seeds) << "iteration " << iter;
  ASSERT_EQ(a.blocks.size(), b.blocks.size()) << "iteration " << iter;
  for (size_t l = 0; l < a.blocks.size(); ++l) {
    EXPECT_EQ(a.blocks[l].src_nodes, b.blocks[l].src_nodes)
        << "iteration " << iter << " layer " << l;
    EXPECT_EQ(a.blocks[l].num_dst, b.blocks[l].num_dst)
        << "iteration " << iter << " layer " << l;
    EXPECT_EQ(a.blocks[l].edge_src, b.blocks[l].edge_src)
        << "iteration " << iter << " layer " << l;
    EXPECT_EQ(a.blocks[l].edge_dst, b.blocks[l].edge_dst)
        << "iteration " << iter << " layer " << l;
  }
}

void ExpectStatsEqual(const loaders::IterationStats& a,
                      const loaders::IterationStats& b, int iter) {
  EXPECT_EQ(a.sampling_ns, b.sampling_ns) << "iteration " << iter;
  EXPECT_EQ(a.aggregation_ns, b.aggregation_ns) << "iteration " << iter;
  EXPECT_EQ(a.transfer_ns, b.transfer_ns) << "iteration " << iter;
  EXPECT_EQ(a.training_ns, b.training_ns) << "iteration " << iter;
  EXPECT_EQ(a.e2e_ns, b.e2e_ns) << "iteration " << iter;
  EXPECT_EQ(a.gather.nodes, b.gather.nodes) << "iteration " << iter;
  EXPECT_EQ(a.gather.cpu_buffer_hits, b.gather.cpu_buffer_hits)
      << "iteration " << iter;
  EXPECT_EQ(a.gather.gpu_cache_hits, b.gather.gpu_cache_hits)
      << "iteration " << iter;
  EXPECT_EQ(a.gather.storage_reads, b.gather.storage_reads)
      << "iteration " << iter;
  EXPECT_EQ(a.sampled_edges, b.sampled_edges) << "iteration " << iter;
  EXPECT_EQ(a.input_nodes, b.input_nodes) << "iteration " << iter;
  EXPECT_EQ(a.merged_group, b.merged_group) << "iteration " << iter;
  EXPECT_EQ(a.effective_bandwidth_bps, b.effective_bandwidth_bps)
      << "iteration " << iter;
  EXPECT_EQ(a.pcie_ingress_bps, b.pcie_ingress_bps) << "iteration " << iter;
}

void ExpectPerIterationEqual(const RunCapture& a, const RunCapture& b) {
  ASSERT_EQ(a.iterations.size(), b.iterations.size());
  for (size_t i = 0; i < a.iterations.size(); ++i) {
    ExpectBatchesEqual(a.iterations[i].batch, b.iterations[i].batch,
                       static_cast<int>(i));
    EXPECT_EQ(a.iterations[i].features, b.iterations[i].features)
        << "iteration " << i;
    ExpectStatsEqual(a.iterations[i].stats, b.iterations[i].stats,
                     static_cast<int>(i));
  }
}

void ExpectTotalsEqual(const RunCapture& a, const RunCapture& b) {
  EXPECT_EQ(a.cache_stats.lookups, b.cache_stats.lookups);
  EXPECT_EQ(a.cache_stats.hits, b.cache_stats.hits);
  EXPECT_EQ(a.cache_stats.misses, b.cache_stats.misses);
  EXPECT_EQ(a.cache_stats.insertions, b.cache_stats.insertions);
  EXPECT_EQ(a.cache_stats.evictions, b.cache_stats.evictions);
  EXPECT_EQ(a.cache_stats.bypasses, b.cache_stats.bypasses);
  EXPECT_EQ(a.storage_reads, b.storage_reads);
  EXPECT_EQ(a.doorbells, b.doorbells);
}

constexpr int kIterations = 12;

uint32_t MaxGroup(const RunCapture& cap) {
  uint32_t g = 0;
  for (const auto& lb : cap.iterations) g = std::max(g, lb.stats.merged_group);
  return g;
}

// Every host_threads against the one-thread run, across window depths
// (none, the paper's 8, a shallow 3) and accumulator groups of one and of
// several iterations. Exactly the consumed groups are prepared, so the
// end-of-run totals are part of the contract too; and the look-ahead
// never holds more than group + window + threads + 1 iterations, pending
// or in flight.
TEST(HostParallelDeterminismTest, GidsThreadsDoNotChangeResults) {
  struct Shape {
    int window_depth;
    double accumulator_target;
  };
  bool merged_groups_seen = false;
  for (const Shape& shape : {Shape{0, 0.95}, Shape{8, 0.95}, Shape{3, 0.95},
                             Shape{8, 0.5}}) {
    RunConfig cfg;
    cfg.window_depth = shape.window_depth;
    cfg.accumulator_target = shape.accumulator_target;
    RunCapture serial = RunLoader(cfg, kIterations);
    merged_groups_seen |= MaxGroup(serial) > 1;
    for (uint32_t threads : {2u, 3u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << "window " << shape.window_depth << " target "
                   << shape.accumulator_target << " threads " << threads);
      cfg.host_threads = threads;
      RunCapture threaded = RunLoader(cfg, kIterations);
      ExpectPerIterationEqual(serial, threaded);
      ExpectTotalsEqual(serial, threaded);
      const size_t ahead = MaxGroup(threaded) + threaded.window_depth;
      EXPECT_LE(threaded.peak_lookahead, ahead + threads + 1);
      EXPECT_GT(threaded.peak_lookahead, ahead) << "nothing sampled ahead";
    }
  }
  EXPECT_TRUE(merged_groups_seen) << "no group merged several iterations";
}

// A sampler that is not concurrent-safe keeps sampling serially on the
// caller (CheckedSampler fails the test otherwise) and gives the same
// results at every host_threads.
TEST(HostParallelDeterminismTest, SerialSamplerMatchesAcrossThreads) {
  RunConfig cfg;
  cfg.concurrent_safe = false;
  RunCapture serial = RunLoader(cfg, kIterations);
  cfg.host_threads = 8;
  RunCapture threaded = RunLoader(cfg, kIterations);
  ExpectPerIterationEqual(serial, threaded);
  ExpectTotalsEqual(serial, threaded);
}

/// Sleeps in every call past the first `fast_calls`, so a loader destroyed
/// right after its first groups still has a sample batch on the pool.
class SlowSampler : public sampling::Sampler {
 public:
  SlowSampler(sampling::Sampler* inner, uint64_t fast_calls)
      : inner_(inner), fast_calls_(fast_calls) {}
  std::string_view name() const override { return inner_->name(); }
  int num_layers() const override { return inner_->num_layers(); }
  void SampleAtInto(std::span<const graph::NodeId> seeds, uint64_t iteration,
                    sampling::MiniBatch* out) override {
    if (calls_.fetch_add(1) >= fast_calls_) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    inner_->SampleAtInto(seeds, iteration, out);
  }

 private:
  sampling::Sampler* inner_;
  uint64_t fast_calls_;
  std::atomic<uint64_t> calls_{0};
};

// Destroying a loader while the pool is still sampling its look-ahead
// batch joins the batch first: clean under ASan and TSan.
TEST(HostParallelDeterminismTest, DestroyWithSampleBatchInFlight) {
  for (uint32_t threads : {2u, 4u}) {
    LoaderRig rig;
    GidsOptions opts = GidsOptions::Bam();  // one iteration per group
    opts.use_window_buffering = true;
    opts.host_threads = threads;
    // The first group needs window + 1 iterations; later calls sleep.
    SlowSampler sampler(rig.sampler.get(), opts.window_depth + 1);
    auto loader = std::make_unique<GidsLoader>(
        rig.dataset.get(), &sampler, rig.seeds.get(), rig.system.get(),
        opts);
    auto lb = loader->Next();
    ASSERT_TRUE(lb.ok());
    loader.reset();
  }
}

/// Fails once: the first call for `iteration` leaves a half-sampled batch
/// in `out` and throws.
class ThrowOnceSampler : public sampling::Sampler {
 public:
  ThrowOnceSampler(sampling::Sampler* inner, uint64_t iteration)
      : inner_(inner), iteration_(iteration) {}
  std::string_view name() const override { return inner_->name(); }
  int num_layers() const override { return inner_->num_layers(); }
  void SampleAtInto(std::span<const graph::NodeId> seeds, uint64_t iteration,
                    sampling::MiniBatch* out) override {
    inner_->SampleAtInto(seeds, iteration, out);
    if (iteration == iteration_ && !thrown_.exchange(true)) {
      out->blocks.pop_back();
      throw std::runtime_error("sampler failed");
    }
  }

 private:
  sampling::Sampler* inner_;
  uint64_t iteration_;
  std::atomic<bool> thrown_{false};
};

// A sampler exception propagates out of Next(), whether the caller or a
// sample batch on the pool hit it, and every iteration it may have left
// half-sampled is sampled again: the next Next() carries on as if the
// failed call had never happened, down to the end-of-run totals.
TEST(HostParallelDeterminismTest, SamplerExceptionIsRetried) {
  RunConfig cfg;
  const RunCapture reference = RunLoader(cfg, kIterations);
  // Past the first group and its window, so at 4 threads a look-ahead
  // batch on the pool samples it.
  constexpr uint64_t kFailing = 12;
  for (uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    cfg.host_threads = threads;
    LoaderRig rig;
    ThrowOnceSampler sampler(rig.sampler.get(), kFailing);
    GidsLoader loader(rig.dataset.get(), &sampler, rig.seeds.get(),
                      rig.system.get(), MakeOptions(cfg));
    RunCapture cap;
    int failures = 0;
    while (cap.iterations.size() < static_cast<size_t>(kIterations) &&
           failures < 2) {
      try {
        auto lb = loader.Next();
        ASSERT_TRUE(lb.ok());
        cap.iterations.push_back(std::move(*lb));
      } catch (const std::runtime_error&) {
        ++failures;
      }
    }
    EXPECT_EQ(failures, 1);
    CaptureTotals(loader, &cap);
    ExpectPerIterationEqual(reference, cap);
    ExpectTotalsEqual(reference, cap);
  }
}

TEST(HostParallelDeterminismTest, BamThreadsDoNotChangeResults) {
  RunConfig cfg;
  cfg.bam = true;
  RunCapture serial = RunLoader(cfg, kIterations);
  cfg.host_threads = 8;
  RunCapture threaded = RunLoader(cfg, kIterations);
  ExpectPerIterationEqual(serial, threaded);
  ExpectTotalsEqual(serial, threaded);
}

TEST(HostParallelDeterminismTest, PoolOnlyCreatedWhenRequested) {
  LoaderRig rig;
  GidsOptions serial_opts;
  GidsLoader serial(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), serial_opts);
  EXPECT_EQ(serial.host_pool(), nullptr);

  LoaderRig rig2;
  GidsOptions par_opts;
  par_opts.host_threads = 4;
  GidsLoader parallel(rig2.dataset.get(), rig2.sampler.get(),
                      rig2.seeds.get(), rig2.system.get(), par_opts);
  ASSERT_NE(parallel.host_pool(), nullptr);
  EXPECT_EQ(parallel.host_pool()->num_threads(), 4u);
}

}  // namespace
}  // namespace gids::core
