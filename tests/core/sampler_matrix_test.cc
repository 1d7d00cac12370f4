// Integration matrix: the GIDS dataloader driven by every sampling
// strategy the library provides (neighborhood, LADIES, Cluster-GCN). For
// each combination the gathered feature bytes must match the feature
// store's ground truth and the per-iteration stats must satisfy the
// conservation invariants — the dataloader is sampler-agnostic by
// construction and this pins that down.
#include <gtest/gtest.h>

#include "core/gids_loader.h"
#include "graph/partition.h"
#include "loaders/mmap_loader.h"
#include "sampling/cluster_sampler.h"
#include "sampling/ladies_sampler.h"
#include "tests/test_util.h"

namespace gids::core {
namespace {

void CheckLoaderAgainstGroundTruth(const graph::Dataset& dataset,
                                   sampling::Sampler* sampler,
                                   const sim::SystemModel& system,
                                   int iterations) {
  sampling::SeedIterator seeds(dataset.train_ids, 16, 13);
  GidsOptions opts;  // full functional mode, all techniques on
  opts.window_depth = 4;
  GidsLoader loader(&dataset, sampler, &seeds, &system, opts);

  const graph::FeatureStore& fs = dataset.features;
  std::vector<float> expected(fs.feature_dim());
  for (int i = 0; i < iterations; ++i) {
    auto b = loader.Next();
    ASSERT_TRUE(b.ok()) << "iteration " << i;
    const auto& nodes = b->batch.input_nodes();
    ASSERT_EQ(b->features.size(), nodes.size() * fs.feature_dim());
    for (size_t n = 0; n < nodes.size(); n += 11) {
      fs.FillFeature(nodes[n], expected);
      for (uint32_t j = 0; j < fs.feature_dim(); ++j) {
        ASSERT_EQ(b->features[n * fs.feature_dim() + j], expected[j])
            << "sampler=" << sampler->name() << " iter=" << i << " node "
            << nodes[n];
      }
    }
    // Conservation: every input node produced at least one page request.
    ASSERT_GE(b->stats.gather.total_page_requests(), nodes.size());
    ASSERT_GT(b->stats.e2e_ns, 0);
  }
}

TEST(SamplerMatrixTest, GidsWithLadiesSampler) {
  gids::testing::LoaderRig rig;
  sampling::LadiesSampler ladies(&rig.dataset->graph,
                                 {.layer_sizes = {64, 64}}, 5);
  CheckLoaderAgainstGroundTruth(*rig.dataset, &ladies, *rig.system, 6);
}

TEST(SamplerMatrixTest, GidsWithClusterGcnSampler) {
  gids::testing::LoaderRig rig;
  Rng rng(9);
  auto partition = graph::BfsPartition(rig.dataset->graph, 64, rng);
  ASSERT_TRUE(partition.ok());
  sampling::ClusterGcnSampler sampler(
      &rig.dataset->graph, std::move(partition).value(),
      {.clusters_per_batch = 1, .num_layers = 2}, 11);
  CheckLoaderAgainstGroundTruth(*rig.dataset, &sampler, *rig.system, 6);
}

TEST(SamplerMatrixTest, MmapAndGidsAgreeOnLadiesBatches) {
  // Cross-loader equivalence holds for LADIES too: identical sampler
  // state -> identical mini-batches -> identical gathered bytes.
  gids::testing::LoaderRig a;
  gids::testing::LoaderRig b;
  sampling::LadiesSampler ladies_a(&a.dataset->graph,
                                   {.layer_sizes = {32, 32}}, 21);
  sampling::LadiesSampler ladies_b(&b.dataset->graph,
                                   {.layer_sizes = {32, 32}}, 21);
  sampling::SeedIterator seeds_a(a.dataset->train_ids, 8, 23);
  sampling::SeedIterator seeds_b(b.dataset->train_ids, 8, 23);
  loaders::MmapLoader mmap(a.dataset.get(), &ladies_a, &seeds_a,
                           a.system.get(), {});
  GidsLoader gids(b.dataset.get(), &ladies_b, &seeds_b, b.system.get(), {});
  for (int i = 0; i < 5; ++i) {
    auto ma = mmap.Next();
    auto gb = gids.Next();
    ASSERT_TRUE(ma.ok());
    ASSERT_TRUE(gb.ok());
    ASSERT_EQ(ma->batch.input_nodes(), gb->batch.input_nodes());
    ASSERT_EQ(ma->features, gb->features);
  }
}

}  // namespace
}  // namespace gids::core
