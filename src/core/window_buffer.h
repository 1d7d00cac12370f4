#ifndef GIDS_CORE_WINDOW_BUFFER_H_
#define GIDS_CORE_WINDOW_BUFFER_H_

#include <cstdint>

#include "graph/feature_store.h"
#include "obs/metric_registry.h"
#include "sampling/minibatch.h"
#include "storage/feature_gather.h"
#include "storage/software_cache.h"

namespace gids::core {

/// Window buffering (§3.4, Fig. 6): the GIDS loader samples a configurable
/// number of mini-batches ahead; for every node that will be accessed in
/// those future mini-batches, the per-page future-reuse counter in the GPU
/// software cache is incremented (step 3-4), putting cached lines into the
/// "USE" state so the random eviction policy skips them (step 5). Each
/// actual access during feature aggregation decrements the counter; at
/// zero the line returns to "Safe to Evict".
///
/// Nodes served by the constant CPU buffer never enter the GPU cache, so
/// they are excluded from registration.
class WindowBuffer {
 public:
  WindowBuffer(storage::SoftwareCache* cache,
               const graph::FeatureStore* layout,
               const storage::HotNodeBuffer* hot_buffer = nullptr);

  /// Registers one mini-batch that just became visible in the look-ahead
  /// window. Must be called exactly once per mini-batch before its gather.
  void Register(const sampling::MiniBatch& batch);

  uint64_t registered_batches() const { return registered_batches_; }
  uint64_t registered_pages() const { return registered_pages_; }

  /// Exposes registration counters through `registry`; the pinned-line
  /// gauge itself lives with the cache (SoftwareCache::BindMetrics).
  void BindMetrics(obs::MetricRegistry* registry,
                   const obs::Labels& labels) const;

 private:
  storage::SoftwareCache* cache_;
  const graph::FeatureStore* layout_;
  const storage::HotNodeBuffer* hot_buffer_;
  uint64_t registered_batches_ = 0;
  uint64_t registered_pages_ = 0;
};

}  // namespace gids::core

#endif  // GIDS_CORE_WINDOW_BUFFER_H_
