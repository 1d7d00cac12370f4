#include "core/gids_loader.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "obs/metric_registry.h"
#include "tests/test_util.h"

namespace gids::core {
namespace {

using gids::testing::LoaderRig;

GidsOptions CountingOptions() {
  GidsOptions o;
  o.counting_mode = true;
  return o;
}

TEST(GidsLoaderTest, ProducesBatchesWithStats) {
  LoaderRig rig;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), CountingOptions());
  auto b = loader.Next();
  ASSERT_TRUE(b.ok());
  EXPECT_GT(b->stats.input_nodes, 0u);
  EXPECT_GT(b->stats.e2e_ns, 0);
  EXPECT_GT(b->stats.aggregation_ns, 0);
  EXPECT_EQ(b->stats.transfer_ns, 0);  // features land in GPU memory
  EXPECT_EQ(loader.name(), "GIDS");
}

TEST(GidsLoaderTest, MaterializedFeaturesMatchGroundTruth) {
  LoaderRig rig;
  GidsOptions opts;  // full functional mode
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  auto b = loader.Next();
  ASSERT_TRUE(b.ok());
  const auto& fs = rig.dataset->features;
  const auto& nodes = b->batch.input_nodes();
  ASSERT_EQ(b->features.size(), nodes.size() * fs.feature_dim());
  std::vector<float> expected(fs.feature_dim());
  for (size_t i = 0; i < nodes.size(); i += 7) {
    fs.FillFeature(nodes[i], expected);
    for (uint32_t j = 0; j < fs.feature_dim(); ++j) {
      ASSERT_EQ(b->features[i * fs.feature_dim() + j], expected[j])
          << "node " << nodes[i];
    }
  }
}

TEST(GidsLoaderTest, BamPresetDisablesEverything) {
  GidsOptions bam = GidsOptions::Bam();
  EXPECT_FALSE(bam.use_accumulator);
  EXPECT_FALSE(bam.use_window_buffering);
  EXPECT_FALSE(bam.use_cpu_buffer);
  LoaderRig rig;
  bam.counting_mode = true;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), bam);
  EXPECT_EQ(loader.name(), "BaM");
  auto b = loader.Next();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b->stats.merged_group, 1u);
  EXPECT_EQ(b->stats.gather.cpu_buffer_hits, 0u);
  EXPECT_EQ(loader.cpu_buffer(), nullptr);
}

TEST(GidsLoaderTest, AccumulatorMergesIterations) {
  LoaderRig rig;  // batch 32, fanout (5,5): a few hundred accesses/iter
  GidsOptions opts = CountingOptions();
  opts.use_cpu_buffer = false;
  opts.use_window_buffering = false;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  auto b = loader.Next();
  ASSERT_TRUE(b.ok());
  // Optane threshold ~855 accesses; per-iteration ~ a few hundred ->
  // must merge more than one iteration.
  EXPECT_GT(b->stats.merged_group, 1u);
}

TEST(GidsLoaderTest, CpuBufferRedirectsTraffic) {
  LoaderRig rig;
  GidsOptions with = CountingOptions();
  with.cpu_buffer_fraction = 0.2;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), with);
  uint64_t cpu_hits = 0;
  for (int i = 0; i < 10; ++i) {
    auto b = loader.Next();
    ASSERT_TRUE(b.ok());
    cpu_hits += b->stats.gather.cpu_buffer_hits;
  }
  EXPECT_GT(cpu_hits, 0u);
  ASSERT_NE(loader.cpu_buffer(), nullptr);
  EXPECT_GT(loader.cpu_buffer()->num_pinned(), 0u);
}

TEST(GidsLoaderTest, WindowBufferingImprovesHitRatio) {
  // Fig. 11's mechanism on a small rig: same traffic, better hit ratio
  // with look-ahead pinning.
  auto run = [](bool window, int depth) {
    LoaderRig rig(0.01, 1.0 / 65536.0);
    GidsOptions opts;
    opts.counting_mode = true;
    opts.use_cpu_buffer = false;
    opts.use_window_buffering = window;
    opts.window_depth = depth;
    opts.gpu_cache_bytes = 96 * 4096;  // tiny cache to force pressure
    GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                      rig.system.get(), opts);
    uint64_t hits = 0;
    uint64_t reads = 0;
    for (int i = 0; i < 40; ++i) {
      auto b = loader.Next();
      GIDS_CHECK(b.ok());
      hits += b->stats.gather.gpu_cache_hits;
      reads += b->stats.gather.storage_reads;
    }
    return static_cast<double>(hits) / static_cast<double>(hits + reads);
  };
  double without = run(false, 0);
  double with = run(true, 8);
  EXPECT_GT(with, without);
}

TEST(GidsLoaderTest, FasterThanBamBaseline) {
  // Fig. 13/14's per-loader ordering at small scale: GIDS < BaM in E2E.
  LoaderRig gids_rig(0.01, 1.0 / 65536.0);
  LoaderRig bam_rig(0.01, 1.0 / 65536.0);
  GidsOptions gids_opts = CountingOptions();
  GidsOptions bam_opts = GidsOptions::Bam();
  bam_opts.counting_mode = true;
  GidsLoader gids(gids_rig.dataset.get(), gids_rig.sampler.get(),
                  gids_rig.seeds.get(), gids_rig.system.get(), gids_opts);
  GidsLoader bam(bam_rig.dataset.get(), bam_rig.sampler.get(),
                 bam_rig.seeds.get(), bam_rig.system.get(), bam_opts);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(gids.Next().ok());
    ASSERT_TRUE(bam.Next().ok());
  }
  EXPECT_LT(gids.elapsed_ns(), bam.elapsed_ns());
}

TEST(GidsLoaderTest, CountingAndFullModeAgreeOnTraffic) {
  LoaderRig a;
  LoaderRig b;
  GidsOptions full;
  GidsOptions counting = CountingOptions();
  GidsLoader full_loader(a.dataset.get(), a.sampler.get(), a.seeds.get(),
                         a.system.get(), full);
  GidsLoader count_loader(b.dataset.get(), b.sampler.get(), b.seeds.get(),
                          b.system.get(), counting);
  for (int i = 0; i < 8; ++i) {
    auto fb = full_loader.Next();
    auto cb = count_loader.Next();
    ASSERT_TRUE(fb.ok());
    ASSERT_TRUE(cb.ok());
    EXPECT_EQ(fb->stats.gather.storage_reads, cb->stats.gather.storage_reads)
        << "iteration " << i;
    EXPECT_EQ(fb->stats.gather.gpu_cache_hits, cb->stats.gather.gpu_cache_hits)
        << "iteration " << i;
    EXPECT_EQ(fb->stats.e2e_ns, cb->stats.e2e_ns) << "iteration " << i;
  }
}

TEST(GidsLoaderTest, DeterministicAcrossRuns) {
  auto run = []() {
    LoaderRig rig;
    GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                      rig.system.get(), CountingOptions());
    TimeNs total = 0;
    for (int i = 0; i < 12; ++i) {
      auto b = loader.Next();
      GIDS_CHECK(b.ok());
      total += b->stats.e2e_ns;
    }
    return total;
  };
  EXPECT_EQ(run(), run());
}

TEST(GidsLoaderTest, AccumulatorRespectsMaxMergedIterations) {
  LoaderRig rig;
  GidsOptions opts = CountingOptions();
  opts.max_merged_iterations = 2;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  for (int i = 0; i < 6; ++i) {
    auto b = loader.Next();
    ASSERT_TRUE(b.ok());
    EXPECT_LE(b->stats.merged_group, 2u);
  }
}

// One row per option value the loader cannot honor: Validate returns an
// InvalidArgument naming the field instead of the constructor aborting.
// The accepted rows cover the presets and a fully loaded storage stack
// (perfbench's mutate-failover settings on four devices).
TEST(GidsOptionsTest, ValidateRejectsEachBadField) {
  struct Row {
    const char* what;
    int n_ssd;
    std::function<void(GidsOptions&)> set;
    const char* field;  // nullptr = accepted
  };
  const Row rows[] = {
      {"defaults", 1, [](GidsOptions&) {}, nullptr},
      {"bam preset", 1, [](GidsOptions& o) { o = GidsOptions::Bam(); },
       nullptr},
      {"mutate-failover", 4,
       [](GidsOptions& o) {
         o.replication_factor = 2;
         o.durability = "quorum";
         o.offline_devices = {1};
         o.offline_at_ns = 340 * kNsPerMs;
         o.fault_rate = 0.002;
         o.latency_spike_rate = 0.0005;
         o.latency_spike_ns = 100 * kNsPerUs;
         o.corruption_rate = 0.001;
         o.verify_reads = true;
         o.updates_per_iter = 8;
         o.edge_ops_per_iter = 4;
         o.crash_at_group = 44;
       },
       nullptr},
      {"factor above n_ssd", 1,
       [](GidsOptions& o) { o.replication_factor = 3; },
       "replication_factor"},
      {"unknown durability with a journal", 1,
       [](GidsOptions& o) {
         o.durability = "bogus";
         o.updates_per_iter = 2;
       },
       "durability"},
      {"unknown durability without a journal", 1,
       [](GidsOptions& o) { o.durability = "bogus"; }, "durability"},
      {"factor above the replica bound", 9,
       [](GidsOptions& o) { o.replication_factor = 9; },
       "replication_factor"},
      {"offline device outside the array", 1,
       [](GidsOptions& o) { o.offline_devices = {4}; }, "offline device"},
      {"write quorum above the factor", 2,
       [](GidsOptions& o) {
         o.replication_factor = 2;
         o.write_quorum = 3;
       },
       "write_quorum"},
      {"crash without a mutation stream", 1,
       [](GidsOptions& o) { o.crash_at_group = 3; }, "crash_at_group"},
      {"negative window depth", 1,
       [](GidsOptions& o) { o.window_depth = -1; }, "window_depth"},
      {"no merged iterations", 1,
       [](GidsOptions& o) { o.max_merged_iterations = 0; },
       "max_merged_iterations"},
      {"removed group prefetch", 1,
       [](GidsOptions& o) { o.prefetch_depth = 1; }, "prefetch_depth"},
  };
  for (const Row& row : rows) {
    GidsOptions o;
    row.set(o);
    Status s = o.Validate(row.n_ssd);
    if (row.field == nullptr) {
      EXPECT_TRUE(s.ok()) << row.what << ": " << s.ToString();
      continue;
    }
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << row.what;
    EXPECT_NE(s.message().find(row.field), std::string::npos)
        << row.what << ": " << s.ToString();
  }
}

// Every knob GidsOptions inherits reaches the storage layer that reads
// it. The values are set through GidsOptions's own flat names, so a
// GidsOptions field that hid a base field would swallow its assignment
// and the layer would see the base's default.
TEST(GidsOptionsTest, EveryComposedKnobReachesTheStorageStack) {
  storage::FaultOptions faults;
  faults.fault_rate = 0.01;
  faults.fault_seed = 0x1111;
  faults.latency_spike_rate = 0.02;
  faults.latency_spike_ns = 70 * kNsPerUs;
  faults.stuck_queue_rate = 0.003;
  faults.offline_devices = {3};
  faults.offline_at_ns = 5 * kNsPerMs;
  faults.corruption_rate = 0.004;
  storage::IntegrityOptions integrity;
  integrity.verify_reads = true;
  integrity.verify_cache_fill = true;
  integrity.verify_cache_hit = true;
  integrity.crc_seed = 0x2222;
  integrity.crc_verify_ns = 3 * kNsPerUs;
  storage::ReplicaOptions replicas;
  replicas.replication_factor = 2;
  replicas.write_quorum = 1;
  MutationStreamOptions mutations;
  mutations.updates_per_iter = 3;
  mutations.edge_ops_per_iter = 2;
  mutations.mutation_seed = 0x3333;

  GidsOptions opts = CountingOptions();
  opts.use_accumulator = false;  // one iteration per prepared group
  opts.fault_rate = faults.fault_rate;
  opts.fault_seed = faults.fault_seed;
  opts.latency_spike_rate = faults.latency_spike_rate;
  opts.latency_spike_ns = faults.latency_spike_ns;
  opts.stuck_queue_rate = faults.stuck_queue_rate;
  opts.offline_devices = faults.offline_devices;
  opts.offline_at_ns = faults.offline_at_ns;
  opts.corruption_rate = faults.corruption_rate;
  opts.verify_reads = integrity.verify_reads;
  opts.verify_cache_fill = integrity.verify_cache_fill;
  opts.verify_cache_hit = integrity.verify_cache_hit;
  opts.crc_seed = integrity.crc_seed;
  opts.crc_verify_ns = integrity.crc_verify_ns;
  opts.replication_factor = replicas.replication_factor;
  opts.write_quorum = replicas.write_quorum;
  opts.updates_per_iter = mutations.updates_per_iter;
  opts.edge_ops_per_iter = mutations.edge_ops_per_iter;
  opts.mutation_seed = mutations.mutation_seed;
  obs::MetricRegistry registry;
  opts.metrics = &registry;

  LoaderRig rig(0.01, 1.0 / 4096.0, sim::SsdSpec::IntelOptane(),
                /*n_ssd=*/4);
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  const storage::StorageArray& array = loader.storage_array();
  ASSERT_NE(array.fault_injector(), nullptr);
  EXPECT_TRUE(array.fault_injector()->options() == faults);
  EXPECT_TRUE(array.integrity() == integrity);
  ASSERT_NE(array.replica_set(), nullptr);
  EXPECT_TRUE(array.replica_set()->options() == replicas);
  ASSERT_NE(loader.mutation_stream(), nullptr);
  EXPECT_TRUE(loader.mutation_stream()->options() == mutations);

  constexpr int kIterations = 4;
  for (int i = 0; i < kIterations; ++i) ASSERT_TRUE(loader.Next().ok());
  double submitted = -1;
  for (const obs::MetricSnapshot& m : registry.Snapshot()) {
    if (m.name == "gids_mutations_submitted_total") submitted = m.value;
  }
  EXPECT_EQ(submitted, kIterations * (mutations.updates_per_iter +
                                      mutations.edge_ops_per_iter));
}

}  // namespace
}  // namespace gids::core
