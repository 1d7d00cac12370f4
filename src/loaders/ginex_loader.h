#ifndef GIDS_LOADERS_GINEX_LOADER_H_
#define GIDS_LOADERS_GINEX_LOADER_H_

#include <deque>
#include <memory>

#include "graph/dataset.h"
#include "loaders/belady_cache.h"
#include "loaders/dataloader.h"
#include "loaders/loader_obs.h"
#include "obs/metric_registry.h"
#include "obs/trace_recorder.h"
#include "sampling/sampler.h"
#include "sampling/seed_iterator.h"
#include "sim/system_model.h"

namespace gids::loaders {

/// Ginex-style baseline (Park et al., VLDB'22): SSD-enabled single-machine
/// GNN training with CPU-side data preparation. A *superbatch* of
/// iterations is sampled up front; the exact future access sequence lets a
/// Belady-optimal CPU feature cache minimize redundant storage reads, and
/// pipelining overlaps sampling/changeset precomputation with aggregation.
/// Storage reads remain CPU-initiated (bounded async queue depth), which is
/// the latency exposure GIDS removes.
///
/// Only homogeneous graphs and neighborhood sampling are supported,
/// matching the real system's limitation noted in §4.1.
struct GinexLoaderOptions {
  uint32_t superbatch_iterations = 16;
  uint64_t async_queue_depth = 64;  // CPU-initiated outstanding reads
  bool counting_mode = false;
  /// CPU cost per trace entry for the changeset (eviction-order)
  /// precomputation.
  TimeNs changeset_ns_per_access = 60;
  /// Optional observability sinks (see OBSERVABILITY.md); all must
  /// outlive the loader. Series are labeled {loader="Ginex"}.
  obs::MetricRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  /// Optional attribution sinks ("Tail-latency attribution"): when set the
  /// loader feeds per-iteration cost-ledger samples into them and exports
  /// the ledger metric series.
  obs::TimeSeries* timeline = nullptr;
  obs::ExemplarReservoir* exemplars = nullptr;
};

class GinexLoader : public DataLoader {
 public:
  GinexLoader(const graph::Dataset* dataset, sampling::Sampler* sampler,
              sampling::SeedIterator* seeds, const sim::SystemModel* system,
              GinexLoaderOptions options = {});
  /// Freezes this loader's pull-style metric series in the registry (see
  /// MetricRegistry::UnbindAll) before the members they read die.
  ~GinexLoader() override;

  std::string_view name() const override { return "Ginex"; }
  StatusOr<LoaderBatch> Next() override;
  /// Banks the consumed batch's block/feature storage for the next
  /// superbatch (the zero-allocation loop, DESIGN.md §11). The loader is
  /// serial: Recycle and Next run on the consumer thread.
  void Recycle(LoaderBatch&& batch) override;
  TimeNs elapsed_ns() const override { return elapsed_ns_; }
  uint64_t iterations() const override { return iterations_; }

 private:
  void PrepareSuperbatch();

  const graph::Dataset* dataset_;
  sampling::Sampler* sampler_;
  sampling::SeedIterator* seeds_;
  const sim::SystemModel* system_;
  GinexLoaderOptions options_;
  std::unique_ptr<BeladyCache> cache_;
  std::unique_ptr<LoaderObserver> observer_;
  obs::Counter* superbatches_total_ = nullptr;

  /// Reused superbatch scratch (page traces keep their capacity across
  /// superbatches) plus the Recycle() banks (serial loader: no lock).
  std::vector<graph::NodeId> seed_scratch_;
  std::vector<std::vector<uint64_t>> traces_;
  std::vector<sampling::MiniBatch> batch_free_;
  std::vector<std::vector<float>> features_free_;

  std::deque<LoaderBatch> ready_;
  TimeNs elapsed_ns_ = 0;
  uint64_t iterations_ = 0;
};

}  // namespace gids::loaders

#endif  // GIDS_LOADERS_GINEX_LOADER_H_
