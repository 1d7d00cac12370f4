#ifndef GIDS_CORE_PRESAMPLE_H_
#define GIDS_CORE_PRESAMPLE_H_

#include <cstdint>
#include <span>

#include "common/workspace_pool.h"
#include "graph/dataset.h"
#include "sampling/sampler.h"
#include "storage/cache_policy.h"

namespace gids::core {

/// Summary of one presample pass (RunPresamplePass).
struct PresampleResult {
  uint64_t iterations = 0;     ///< sampler iterations actually run
  uint64_t sampled_nodes = 0;  ///< input-node observations (with repeats)
  uint64_t distinct_nodes = 0; ///< nodes observed at least once
};

/// The FGNN-style presample pass behind CachePolicyKind::kPresample: runs
/// `iterations` bounded iterations of the active sampler over its own
/// shuffled seed stream (a private SeedIterator on `seed`, so the
/// training epoch's seed order is untouched) and accumulates per-node
/// access counts into `counts` (resized to num_nodes; existing counts are
/// kept and added to, which is what live re-ranking wants).
///
/// Sampler iterations use a high iteration-key offset so their RNG
/// streams never collide with training iterations. Requires a
/// concurrent-safe sampler (pure per-iteration streams); returns a
/// zero-iteration result for stateful samplers — callers fall back to the
/// structural hot metric.
///
/// Deterministic: a pure function of (dataset, sampler seed, `seed`,
/// `batch_size`, `iterations`) regardless of host threads.
PresampleResult RunPresamplePass(const graph::Dataset& dataset,
                                 sampling::Sampler& sampler,
                                 uint32_t batch_size, uint64_t seed,
                                 uint32_t iterations,
                                 Workspace<uint64_t>* counts);

/// Seeds a kPresample `policy` as GidsLoader does for the policy it owns:
/// runs RunPresamplePass and ingests the frequency table (into `counts`
/// when non-null, so the caller can keep accumulating live counts). Other
/// kinds need no seeding. Exposed for shared-policy hosts (RunMultiGpu)
/// that must seed once before handing the policy to many loaders.
void SeedCachePolicy(storage::CachePolicy* policy,
                     const graph::Dataset& dataset,
                     sampling::Sampler& sampler, uint32_t batch_size,
                     uint64_t presample_seed, uint32_t presample_iterations,
                     Workspace<uint64_t>* counts);

}  // namespace gids::core

#endif  // GIDS_CORE_PRESAMPLE_H_
