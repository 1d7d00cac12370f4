#include "core/multi_gpu.h"

#include <algorithm>

#include "common/check.h"
#include "core/presample.h"

namespace gids::core {

StatusOr<MultiGpuResult> RunMultiGpu(const graph::Dataset& dataset,
                                     const sim::SystemModel& system,
                                     const std::vector<int>& fanouts,
                                     uint32_t batch_size, uint64_t rounds,
                                     const MultiGpuOptions& options,
                                     uint64_t seed) {
  if (options.num_gpus < 1) {
    return Status::InvalidArgument("num_gpus must be >= 1");
  }
  const int gpus = options.num_gpus;

  // Shard the training seeds round-robin across GPUs.
  std::vector<std::vector<graph::NodeId>> shards(gpus);
  for (size_t i = 0; i < dataset.train_ids.size(); ++i) {
    shards[i % gpus].push_back(dataset.train_ids[i]);
  }
  for (const auto& shard : shards) {
    if (shard.empty()) {
      return Status::InvalidArgument("more GPUs than training seeds");
    }
  }

  // One independent GIDS stack per GPU.
  std::vector<std::unique_ptr<sampling::NeighborSampler>> samplers;
  std::vector<std::unique_ptr<sampling::SeedIterator>> seed_iters;
  std::vector<std::unique_ptr<GidsLoader>> loaders;
  for (int g = 0; g < gpus; ++g) {
    samplers.push_back(std::make_unique<sampling::NeighborSampler>(
        &dataset.graph, sampling::NeighborSamplerOptions{.fanouts = fanouts},
        seed ^ (0x5a3e + g)));
    seed_iters.push_back(std::make_unique<sampling::SeedIterator>(
        shards[g], batch_size, seed ^ (0x5eed + g)));
  }

  // Shared-policy mode: one ranking/admission brain across every GPU's
  // cache, seeded once before the loaders attach to it. The loaders see a
  // pre-seeded external policy and never re-seed (shared_cache_policy
  // contract in GidsOptions).
  std::unique_ptr<storage::CachePolicy> shared_policy;
  if (options.share_cache_policy) {
    shared_policy = storage::MakeCachePolicy(options.loader.cache_policy);
    SeedCachePolicy(shared_policy.get(), dataset, *samplers[0], batch_size,
                    options.loader.presample_seed,
                    options.loader.presample_iterations, nullptr);
  }

  for (int g = 0; g < gpus; ++g) {
    GidsOptions opts = options.loader;
    opts.seed = seed ^ (0x61d5 + g);
    opts.counting_mode = true;
    if (shared_policy != nullptr) {
      opts.shared_cache_policy = shared_policy.get();
    }
    loaders.push_back(std::make_unique<GidsLoader>(
        &dataset, samplers[g].get(), seed_iters[g].get(), &system, opts));
  }

  // Ring all-reduce cost: each GPU moves 2 (G-1)/G * model_bytes.
  TimeNs allreduce_ns = options.allreduce_latency_ns;
  if (gpus > 1) {
    double bytes = 2.0 * (gpus - 1) / gpus *
                   static_cast<double>(options.model_bytes);
    allreduce_ns += SecToNs(bytes / options.interconnect_bps);
  }

  MultiGpuResult result;
  result.rounds.reserve(rounds);
  for (uint64_t r = 0; r < rounds; ++r) {
    MultiGpuRoundStats round;
    round.allreduce_ns = allreduce_ns;
    for (auto& loader : loaders) {
      GIDS_ASSIGN_OR_RETURN(loaders::LoaderBatch lb, loader->Next());
      round.slowest_gpu_ns =
          std::max(round.slowest_gpu_ns, lb.stats.e2e_ns);
    }
    round.round_ns = round.slowest_gpu_ns + round.allreduce_ns;
    result.total_ns += round.round_ns;
    result.rounds.push_back(round);
  }
  result.total_iterations = rounds * static_cast<uint64_t>(gpus);
  if (shared_policy != nullptr) {
    result.shared_policy_stats = shared_policy->stats();
  }
  // The loaders hold raw pointers into shared_policy; they must die first.
  loaders.clear();
  return result;
}

}  // namespace gids::core
