#include "core/presample.h"

#include <vector>

#include "common/check.h"
#include "sampling/seed_iterator.h"

namespace gids::core {
namespace {

/// Iteration-key offset for presample RNG streams. Training iterations
/// count up from zero; starting the presample streams here keeps the two
/// families disjoint for any realistic run length.
constexpr uint64_t kPresampleIterationBase = 1ull << 62;

}  // namespace

PresampleResult RunPresamplePass(const graph::Dataset& dataset,
                                 sampling::Sampler& sampler,
                                 uint32_t batch_size, uint64_t seed,
                                 uint32_t iterations,
                                 Workspace<uint64_t>* counts) {
  GIDS_CHECK(counts != nullptr);
  PresampleResult result;
  counts->resize(dataset.graph.num_nodes());
  if (iterations == 0 || dataset.train_ids.empty()) return result;
  // Stateful samplers demand serial, strictly increasing iterations; a
  // presample pass on a side stream would corrupt the training sequence.
  if (!sampler.concurrent_safe()) return result;

  sampling::SeedIterator seeds(dataset.train_ids, batch_size, seed);
  std::vector<graph::NodeId> seed_batch;
  sampling::MiniBatch batch;
  for (uint32_t i = 0; i < iterations; ++i) {
    seeds.NextBatchInto(seed_batch);
    sampler.SampleAtInto(seed_batch, kPresampleIterationBase + i, &batch);
    for (graph::NodeId v : batch.input_nodes()) {
      GIDS_DCHECK(v < counts->size());
      ++(*counts)[v];
      ++result.sampled_nodes;
    }
    ++result.iterations;
  }
  for (uint64_t c : counts->span()) {
    if (c > 0) ++result.distinct_nodes;
  }
  return result;
}

void SeedCachePolicy(storage::CachePolicy* policy,
                     const graph::Dataset& dataset,
                     sampling::Sampler& sampler, uint32_t batch_size,
                     uint64_t presample_seed, uint32_t presample_iterations,
                     Workspace<uint64_t>* counts) {
  GIDS_CHECK(policy != nullptr);
  if (policy->kind() != storage::CachePolicyKind::kPresample) return;
  Workspace<uint64_t> local;
  Workspace<uint64_t>* table = counts != nullptr ? counts : &local;
  PresampleResult r = RunPresamplePass(dataset, sampler, batch_size,
                                       presample_seed, presample_iterations,
                                       table);
  if (r.iterations > 0) {
    policy->IngestNodeFrequencies(table->span(), dataset.features);
  }
}

}  // namespace gids::core
