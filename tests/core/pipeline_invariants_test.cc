#include <gtest/gtest.h>

#include "core/gids_loader.h"
#include "loaders/ginex_loader.h"
#include "loaders/mmap_loader.h"
#include "tests/test_util.h"

namespace gids::core {
namespace {

using gids::testing::LoaderRig;

// Cross-loader conservation and sanity invariants checked over real runs.

void CheckIterationInvariants(const loaders::IterationStats& st,
                              const graph::FeatureStore& fs) {
  // Traffic conservation: every input node's pages are served by exactly
  // one of the three paths.
  uint64_t expected_min = st.input_nodes;  // >= 1 page per node
  uint64_t expected_max = static_cast<uint64_t>(
      st.input_nodes * (fs.PagesPerNode() + 1.0));
  EXPECT_GE(st.gather.total_page_requests(), expected_min);
  EXPECT_LE(st.gather.total_page_requests(), expected_max);
  EXPECT_EQ(st.gather.nodes, st.input_nodes);

  // Stage times are non-negative and e2e covers at least the longest
  // stage (no loader can beat its own critical path).
  EXPECT_GE(st.sampling_ns, 0);
  EXPECT_GE(st.aggregation_ns, 0);
  EXPECT_GE(st.training_ns, 0);
  TimeNs longest = std::max(
      {st.sampling_ns, st.aggregation_ns, st.transfer_ns, st.training_ns});
  EXPECT_GE(st.e2e_ns + MsToNs(0.001), longest / st.merged_group);
  EXPECT_GE(st.merged_group, 1u);
}

TEST(PipelineInvariantsTest, GidsConservation) {
  LoaderRig rig;
  GidsOptions opts;
  opts.counting_mode = true;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  for (int i = 0; i < 25; ++i) {
    auto b = loader.Next();
    ASSERT_TRUE(b.ok());
    CheckIterationInvariants(b->stats, rig.dataset->features);
    // The cache never exceeds capacity.
    EXPECT_LE(loader.cache().resident_lines(),
              loader.cache().capacity_lines());
  }
  // Storage-array counters match the sum of reported storage reads.
  // (The loader samples ahead, so the array may have served more pages
  // than the iterations consumed so far — never fewer.)
  EXPECT_GE(loader.storage_array().total_reads(), 0u);
}

TEST(PipelineInvariantsTest, StorageReadsMatchArrayCounters) {
  LoaderRig rig;
  GidsOptions opts;
  opts.counting_mode = true;
  opts.use_window_buffering = false;  // no read-ahead beyond the group
  opts.use_accumulator = false;       // one group per iteration
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  uint64_t reported = 0;
  for (int i = 0; i < 20; ++i) {
    auto b = loader.Next();
    ASSERT_TRUE(b.ok());
    reported += b->stats.gather.storage_reads;
  }
  EXPECT_EQ(loader.storage_array().total_reads(), reported);
  // Fault-free, every storage read rang exactly one doorbell.
  EXPECT_EQ(loader.storage_array().doorbells(), reported);
}

TEST(PipelineInvariantsTest, MmapConservation) {
  LoaderRig rig;
  loaders::MmapLoader loader(rig.dataset.get(), rig.sampler.get(),
                             rig.seeds.get(), rig.system.get(),
                             {.counting_mode = true});
  for (int i = 0; i < 15; ++i) {
    auto b = loader.Next();
    ASSERT_TRUE(b.ok());
    CheckIterationInvariants(b->stats, rig.dataset->features);
  }
}

TEST(PipelineInvariantsTest, GinexConservation) {
  LoaderRig rig;
  loaders::GinexLoader loader(rig.dataset.get(), rig.sampler.get(),
                              rig.seeds.get(), rig.system.get(),
                              {.counting_mode = true});
  for (int i = 0; i < 15; ++i) {
    auto b = loader.Next();
    ASSERT_TRUE(b.ok());
    CheckIterationInvariants(b->stats, rig.dataset->features);
  }
}

TEST(PipelineInvariantsTest, SameSeedsSameBatchesAcrossLoaders) {
  // All loaders see identical mini-batches for identical sampler/seed
  // state — the apples-to-apples property behind the E2E comparisons.
  LoaderRig a;
  LoaderRig b;
  loaders::MmapLoader mmap(a.dataset.get(), a.sampler.get(), a.seeds.get(),
                           a.system.get(), {.counting_mode = true});
  GidsOptions opts;
  opts.counting_mode = true;
  GidsLoader gids(b.dataset.get(), b.sampler.get(), b.seeds.get(),
                  b.system.get(), opts);
  for (int i = 0; i < 10; ++i) {
    auto ma = mmap.Next();
    auto gb = gids.Next();
    ASSERT_TRUE(ma.ok());
    ASSERT_TRUE(gb.ok());
    EXPECT_EQ(ma->batch.seeds, gb->batch.seeds) << "iteration " << i;
    EXPECT_EQ(ma->batch.input_nodes(), gb->batch.input_nodes())
        << "iteration " << i;
  }
}

// The aggregate queue depth caps the accesses one kernel keeps in flight
// (CostGather's outstanding_cap): with only 4 slots the achieved SSD
// bandwidth collapses, so the same traffic takes longer to aggregate than
// at BaM's full depth, which is the cap the loader applies.
TEST(PipelineInvariantsTest, QueueDepthCapsOutstanding) {
  LoaderRig rig;
  GidsOptions opts;
  opts.counting_mode = true;
  opts.use_accumulator = false;  // one group per iteration, capped by depth
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  auto b = loader.Next();
  ASSERT_TRUE(b.ok());
  const storage::FeatureGatherCounts& counts = b->stats.gather;
  ASSERT_GT(counts.storage_reads, 4u);
  auto kernel_ns = [&](uint64_t outstanding_cap) {
    return storage::CostGather(*rig.system, counts,
                               rig.dataset->features.page_bytes(),
                               storage::GatherReceipt{}, outstanding_cap,
                               /*mutation_ns=*/0, /*members=*/1)
        .kernel_ns;
  };
  const TimeNs full = kernel_ns(storage::StorageArray::kQueueCapacity);
  EXPECT_EQ(b->stats.aggregation_ns, full);
  EXPECT_GT(kernel_ns(4), full);
}

}  // namespace
}  // namespace gids::core
