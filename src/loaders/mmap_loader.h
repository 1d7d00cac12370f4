#ifndef GIDS_LOADERS_MMAP_LOADER_H_
#define GIDS_LOADERS_MMAP_LOADER_H_

#include <memory>

#include "graph/dataset.h"
#include "loaders/dataloader.h"
#include "loaders/loader_obs.h"
#include "loaders/os_page_cache.h"
#include "obs/metric_registry.h"
#include "obs/trace_recorder.h"
#include "sampling/sampler.h"
#include "sampling/seed_iterator.h"
#include "sim/system_model.h"

namespace gids::loaders {

/// The paper's baseline: the DGL dataloader extended to memory-mapped
/// feature files (§2.3, Fig. 4). The CPU samples the graph (structure is
/// pinned in CPU memory) and gathers features through an mmap'd NumPy
/// array; missing pages fault synchronously through the OS into the page
/// cache, and the gathered mini-batch is copied to the GPU over PCIe
/// before training. All four stages are serial.
struct MmapLoaderOptions {
  /// Skip materializing feature bytes (timing/counting runs).
  bool counting_mode = false;
  /// Optional observability sinks (see OBSERVABILITY.md); all must
  /// outlive the loader. Series are labeled {loader="DGL-mmap"}.
  obs::MetricRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  /// Optional attribution sinks ("Tail-latency attribution"): when set the
  /// loader feeds per-iteration cost-ledger samples into them and exports
  /// the ledger metric series.
  obs::TimeSeries* timeline = nullptr;
  obs::ExemplarReservoir* exemplars = nullptr;
};

class MmapLoader : public DataLoader {
 public:
  MmapLoader(const graph::Dataset* dataset, sampling::Sampler* sampler,
             sampling::SeedIterator* seeds, const sim::SystemModel* system,
             MmapLoaderOptions options = {});
  /// Freezes this loader's pull-style metric series in the registry (see
  /// MetricRegistry::UnbindAll) before the members they read die.
  ~MmapLoader() override;

  std::string_view name() const override { return "DGL-mmap"; }
  StatusOr<LoaderBatch> Next() override;
  /// Banks the consumed batch's block/feature storage for the next Next()
  /// (the zero-allocation loop, DESIGN.md §11). The loader is serial:
  /// Recycle and Next run on the consumer thread.
  void Recycle(LoaderBatch&& batch) override;
  TimeNs elapsed_ns() const override { return elapsed_ns_; }
  uint64_t iterations() const override { return iterations_; }

 private:
  const graph::Dataset* dataset_;
  sampling::Sampler* sampler_;
  sampling::SeedIterator* seeds_;
  const sim::SystemModel* system_;
  MmapLoaderOptions options_;
  std::unique_ptr<OsPageCache> page_cache_;
  std::unique_ptr<LoaderObserver> observer_;
  /// Reused seed scratch plus the Recycle() banks (serial loader: no lock).
  std::vector<graph::NodeId> seed_scratch_;
  std::vector<sampling::MiniBatch> batch_free_;
  std::vector<std::vector<float>> features_free_;
  TimeNs elapsed_ns_ = 0;
  uint64_t iterations_ = 0;
};

}  // namespace gids::loaders

#endif  // GIDS_LOADERS_MMAP_LOADER_H_
