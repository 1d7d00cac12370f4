#ifndef GIDS_CORE_GIDS_LOADER_H_
#define GIDS_CORE_GIDS_LOADER_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "common/workspace_pool.h"
#include "core/accumulator.h"
#include "core/constant_cpu_buffer.h"
#include "core/mutation_stream.h"
#include "core/window_buffer.h"
#include "graph/dataset.h"
#include "loaders/dataloader.h"
#include "loaders/loader_obs.h"
#include "obs/exemplar.h"
#include "obs/metric_registry.h"
#include "obs/time_series.h"
#include "obs/trace_recorder.h"
#include "sampling/sampler.h"
#include "sampling/seed_iterator.h"
#include "sim/system_model.h"
#include "storage/fault_injector.h"
#include "storage/feature_gather.h"
#include "storage/page_integrity.h"
#include "storage/replica_set.h"
#include "storage/software_cache.h"
#include "storage/storage_array.h"

namespace gids::core {

/// Configuration of the GIDS dataloader. Disabling all three techniques
/// yields the plain BaM dataloader baseline (GPU-initiated storage access,
/// random-eviction software cache, per-iteration kernels) that the paper
/// compares against.
///
/// The storage knobs are inherited from the option structs the stack
/// consumes (FAULTS.md, INTEGRITY.md), whose defaults keep each layer off;
/// the loader hands the options to the stack as they are. No field here
/// may reuse a base field's name: it would hide the base field, and the
/// stack would see the base's default. Each base has its own enabled();
/// call it qualified, e.g. FaultOptions::enabled().
struct GidsOptions : storage::FaultOptions,
                     storage::IntegrityOptions,
                     storage::ReplicaOptions,
                     MutationStreamOptions {
  bool use_accumulator = true;
  double accumulator_target = 0.95;        // fraction of peak SSD IOPs
  uint32_t max_merged_iterations = 16;     // batch-buffer memory bound

  bool use_window_buffering = true;
  int window_depth = 8;                    // paper default (§3.4)

  bool use_cpu_buffer = true;
  double cpu_buffer_fraction = 0.10;       // of the feature data size
  HotMetric hot_metric = HotMetric::kReversePageRank;
  /// Optional user-supplied hot-node ranking (hottest first), overriding
  /// hot_metric (§3.3: users may pin by alternative metrics). Must outlive
  /// the loader.
  const std::vector<graph::NodeId>* hot_node_order = nullptr;

  /// GPU software cache size; 0 uses the system config's (scaled) value.
  uint64_t gpu_cache_bytes = 0;

  /// Replacement/admission policy of the software cache (CACHING.md).
  /// kPresample also runs a presample pass at construction and pins the
  /// CPU buffer by observed frequency instead of hot_metric.
  storage::CachePolicyKind cache_policy = storage::CachePolicyKind::kRandom;
  /// Externally owned policy instance shared across loaders (multi-GPU
  /// shared-cache-policy mode, MultiGpuOptions::share_cache_policy).
  /// Overrides cache_policy; must outlive the loader. The sharing host
  /// seeds the ranking (SeedCachePolicy) — loaders never re-seed a policy
  /// they do not own.
  storage::CachePolicy* shared_cache_policy = nullptr;
  /// Presample-pass length (sampler iterations) for kPresample; 0 skips
  /// the pass (the buffer then falls back to hot_metric).
  uint32_t presample_iterations = 32;
  /// Seed of the presample pass's private shuffled seed stream (the
  /// training epoch's seed order is untouched).
  uint64_t presample_seed = 0x9e5a;
  /// Re-rank cadence for kPresample: every N prepared accumulator groups
  /// the loader re-ingests cumulative observed node frequencies
  /// (presample counts + live batch composition) so the policy tracks
  /// drift. 0 disables live re-ranking. Group-scoped, so re-ranking is
  /// deterministic at any host_threads.
  uint32_t presample_rerank_groups = 0;

  /// Counting mode skips payload movement (timing-only runs).
  bool counting_mode = false;

  /// Page-coalescing gather (DESIGN.md §10): each distinct storage page in
  /// a merged group is serviced by exactly one cache/storage round-trip
  /// and scattered to every requesting output row — duplicate nodes, rows
  /// sharing a page, and repeats across accumulator-merged iterations all
  /// collapse, the way concurrent same-page requests coalesce in the BaM
  /// I/O stack (§2). Off (default) keeps the access-per-row path bit for
  /// bit.
  bool coalesce_pages = false;

  /// Host-side data-preparation parallelism: worker threads that sample
  /// the look-ahead asynchronously, one iteration per worker per batch,
  /// while the calling thread runs the serial feature gather. 1 keeps
  /// preparation on the calling thread. Results are bit-identical across
  /// values (see DESIGN.md "Host parallelism").
  uint32_t host_threads = 1;

  /// Removed: the asynchronous group prefetch is gone, and Next() always
  /// prepares groups on the calling thread. Validate() rejects any value
  /// but 0; the field stays only so code that sets it to 0 still builds.
  uint32_t prefetch_depth = 0;

  /// Software-cache shard count override; 0 uses the automatic policy
  /// (power of two, >= 256 lines per shard, <= 64 shards).
  uint32_t cache_shards = 0;

  /// Size-bucketed workspace pooling for the data-preparation hot path
  /// (DESIGN.md §11): sampler scratch, gather staging, and slice vectors
  /// draw pow2-class blocks from the process-wide WorkspacePool,
  /// and consumed LoaderBatches handed back via Recycle() reseed the next
  /// iteration's seed/block/feature storage, so a steady-state epoch
  /// performs zero heap allocations (gids_ws_allocs_total stays flat).
  /// Off is the escape hatch (`gids_cli --no-workspace-pool`): every
  /// workspace acquire falls through to malloc/free, with bit-identical
  /// results. The flag sets the process-wide pool mode, so all loaders in
  /// one process should agree on it.
  bool workspace_pool = true;

  /// Retry policy of the fault layer (FAULTS.md): attempts =
  /// io_max_retries + 1; exponential backoff starting at io_backoff_ns
  /// (doubling, capped at RetryPolicy's fixed backoff_cap_ns); per-attempt
  /// command timeout io_timeout_ns. All in virtual time.
  uint32_t io_max_retries = 4;
  TimeNs io_timeout_ns = 1 * kNsPerMs;
  TimeNs io_backoff_ns = 20 * kNsPerUs;

  /// Background scrubber budget (INTEGRITY.md): resident cache lines (plus
  /// pinned CPU buffer rows) verified per merged iteration, walked in
  /// virtual time between iterations. 0 disables the scrubber.
  uint32_t scrub_pages_per_iter = 0;

  /// Durability level mutations are acknowledged at:
  /// none | journaled | synced | quorum.
  std::string durability = "quorum";
  /// Records the background applier checkpoints into striped pages per
  /// merged iteration (0 = apply every ready record each step).
  uint64_t journal_apply_budget = 0;
  /// Deterministic crash point: before preparing merged-iteration group
  /// `crash_at_group` (0-based), the loader crashes the journals
  /// (truncating unsynced tails at crash_seed-chosen cuts), recovers,
  /// and resubmits lost records. -1 = never.
  int crash_at_group = -1;
  /// Seed of the per-device crash truncation cuts.
  uint64_t crash_seed = 0xc4a54ull;

  /// Optional observability sinks (see OBSERVABILITY.md). When set, the
  /// loader binds every component (cache, storage array, CPU buffer,
  /// window buffer) into the registry under {loader=<display_name>} and
  /// records per-iteration spans / accumulator flush events in virtual
  /// time. Both must outlive the loader.
  obs::MetricRegistry* metrics = nullptr;
  obs::TraceRecorder* trace = nullptr;
  /// Optional attribution sinks (OBSERVABILITY.md "Tail-latency
  /// attribution"). When either is set the loader feeds every iteration's
  /// (end time, e2e, cost ledger) sample into them and additionally
  /// exports the ledger metric series and per-span ledger args; when both
  /// are null the metric/trace output is byte-identical to a build without
  /// the attribution layer. Must outlive the loader.
  obs::TimeSeries* timeline = nullptr;
  obs::ExemplarReservoir* exemplars = nullptr;
  /// Optional failover-exemplar sink (rank it RankBy::kMostFailovers):
  /// iterations whose gathers failed over to a replica are retained with
  /// the device failed FROM and replica failed TO, so `gids_cli report`
  /// explains outages without the trace. Fed only when failovers occur.
  obs::ExemplarReservoir* failover_exemplars = nullptr;

  uint64_t seed = 0x61d5;
  std::string display_name = "GIDS";

  /// The plain BaM dataloader: all GIDS techniques disabled.
  static GidsOptions Bam() {
    GidsOptions o;
    o.use_accumulator = false;
    o.use_window_buffering = false;
    o.use_cpu_buffer = false;
    o.display_name = "BaM";
    return o;
  }

  /// InvalidArgument for values the loader cannot honor on an
  /// `n_ssd`-device array. The loader constructor CHECKs it; callers
  /// holding user input call it first to report the error instead.
  Status Validate(int n_ssd) const;
};

/// The GIDS dataloader (§3): GPU-side sampling over CPU-pinned structure,
/// GPU-initiated feature fetches from the SSD array through the software
/// cache, with the dynamic storage access accumulator, window buffering,
/// and the constant CPU buffer layered on top.
class GidsLoader : public loaders::DataLoader {
 public:
  GidsLoader(const graph::Dataset* dataset, sampling::Sampler* sampler,
             sampling::SeedIterator* seeds, const sim::SystemModel* system,
             GidsOptions options = {});
  ~GidsLoader() override;

  std::string_view name() const override { return options_.display_name; }
  /// The next iteration; groups are prepared here, on the calling thread.
  /// Next() and Recycle() are called from one thread. With a pool and a
  /// concurrent-safe sampler, the pool may still be sampling look-ahead
  /// iterations when Next() returns: sampler calls overlap the caller's
  /// work until a later Next() joins the batch or the loader is destroyed
  /// (Sampler::concurrent_safe).
  StatusOr<loaders::LoaderBatch> Next() override;
  /// Banks the consumed batch's seed/block/feature storage for reuse by a
  /// later iteration (the zero-allocation loop, DESIGN.md §11). Call it
  /// from the thread that calls Next().
  void Recycle(loaders::LoaderBatch&& batch) override;
  TimeNs elapsed_ns() const override { return elapsed_ns_; }
  uint64_t iterations() const override { return iterations_; }

  const GidsOptions& options() const { return options_; }
  const storage::SoftwareCache& cache() const { return *cache_; }
  storage::SoftwareCache& mutable_cache() { return *cache_; }
  const StorageAccessAccumulator& accumulator() const { return *accumulator_; }
  /// Effective look-ahead depth: window_depth with window buffering on,
  /// else 0.
  int window_depth() const { return lookahead_; }
  const ConstantCpuBuffer* cpu_buffer() const { return cpu_buffer_.get(); }
  /// The plugged cache policy (owned unless shared_cache_policy was set).
  const storage::CachePolicy& cache_policy() const { return *policy_; }
  const storage::StorageArray& storage_array() const { return *storage_; }
  /// The journaled mutation stream (null when no mutations are set).
  const MutationStream* mutation_stream() const { return mutations_.get(); }
  /// The host data-preparation pool (null when host_threads == 1). Its
  /// workers sample look-ahead iterations and sweep scrub shards for the
  /// one thread that calls Next() and Recycle().
  const ThreadPool* host_pool() const { return pool_.get(); }
  /// The most sampled iterations that were ever pending or in flight at
  /// once: at most group + window depth + pool threads + 1.
  size_t peak_lookahead() const { return peak_lookahead_; }

 private:
  /// One look-ahead iteration: drawn seeds, and once sampled its batch.
  struct Pending {
    uint64_t iteration = 0;  // global iteration index (RNG stream key)
    std::vector<graph::NodeId> seeds;
    sampling::MiniBatch batch;
    TimeNs sampling_ns = 0;
    bool registered = false;  // entered the window buffer
  };
  /// Drawn iterations on their way into pending_. With an active job they
  /// are the batch the pool samples while the caller gathers; without one
  /// JoinSampleBatch() still has to sample them (freshly drawn, or left by
  /// a sampler exception). They enter pending_ only once sampled, so
  /// pending_ is touched by the preparing thread alone.
  struct SampleBatch {
    std::vector<Pending> items;
    ThreadPool::Batch job;
  };

  /// The next iteration with its seeds drawn, reusing parked storage.
  /// Seeds are drawn serially in iteration order: the seed iterator is
  /// the one stateful input, so the seed stream stays a serial loader's.
  Pending NextPending();
  /// Samples `p` on its own RNG stream; safe on several threads at once
  /// for a concurrent-safe sampler.
  void SampleOne(Pending& p) const;
  /// Samples ahead until at least `count` mini-batches are pending: joins
  /// the batch in flight if pending_ falls short, then samples any still
  /// missing iterations now (on the pool when the sampler is
  /// concurrent-safe).
  void EnsureSampledAhead(size_t count);
  /// Waits for the batch in flight, or samples ahead_'s iterations now
  /// when none is, then appends them to pending_. A sampler exception
  /// propagates and leaves them in ahead_ to be sampled again.
  void JoinSampleBatch();
  /// Starts sampling the next pool-threads iterations on the pool when no
  /// batch is in flight and at most group + lookahead + 1 are pending.
  /// Only for a concurrent-safe sampler.
  void LaunchSampleBatch(size_t group, size_t lookahead);
  /// Registers every pending batch in [0, count) with the window buffer.
  void RegisterWindow(size_t count);
  /// Prepares the next accumulator group into ready_; Next() calls it on
  /// the calling thread once every ready batch is consumed. On an error
  /// ready_ is left empty and pending_ unchanged.
  Status PrepareGroupBatches();

  const graph::Dataset* dataset_;
  sampling::Sampler* sampler_;
  sampling::SeedIterator* seeds_;
  const sim::SystemModel* system_;
  GidsOptions options_;

  std::unique_ptr<storage::StorageArray> storage_;
  std::unique_ptr<storage::CachePolicy> owned_policy_;
  storage::CachePolicy* policy_ = nullptr;  // never null after the ctor
  std::unique_ptr<storage::SoftwareCache> cache_;
  std::unique_ptr<ConstantCpuBuffer> cpu_buffer_;
  std::unique_ptr<storage::FeatureGatherer> gatherer_;
  std::unique_ptr<WindowBuffer> window_;
  std::unique_ptr<StorageAccessAccumulator> accumulator_;
  std::unique_ptr<ThreadPool> pool_;

  std::deque<Pending> pending_;
  SampleBatch ahead_;
  size_t peak_lookahead_ = 0;
  /// The prepared group, consumed in order from ready_next_; refilled in
  /// place, so its storage is reused across groups.
  std::vector<loaders::LoaderBatch> ready_;
  size_t ready_next_ = 0;
  /// Consumed Pendings parked for reuse: their seeds vector and MiniBatch
  /// blocks keep their capacity across iterations.
  std::vector<Pending> pending_free_;
  /// Recycle() deposits; group preparation withdraws.
  std::vector<sampling::MiniBatch> batch_free_;
  std::vector<std::vector<float>> features_free_;

  // Group-preparation scratch, reused across calls: pool-backed so
  // steady-state groups allocate nothing.
  Workspace<storage::GatherSlice> gather_slices_;
  Workspace<storage::FeatureGatherCounts> slice_counts_;
  Workspace<storage::SoftwareCache::ScrubResult> scrub_results_;

  // Live re-rank state for kPresample (presample_rerank_groups > 0):
  // cumulative observed node frequencies (presample counts + every
  // consumed batch's input-node composition) and the group countdown.
  Workspace<uint64_t> live_freq_;
  uint64_t groups_since_rerank_ = 0;
  bool presample_live_rerank_ = false;

  uint64_t next_sample_iteration_ = 0;
  int lookahead_ = 0;
  TimeNs elapsed_ns_ = 0;
  uint64_t iterations_ = 0;

  // Durability & replication (FAULTS.md "Durability & failover"). The
  // storage array's virtual clock is advanced at prep start, so
  // offline_at_ns onsets are a pure function of groups prepared.
  std::unique_ptr<MutationStream> mutations_;
  /// Sum of the e2e_ns of every group prepared so far — the loader-clock
  /// instant the NEXT group preparation starts at.
  TimeNs prep_clock_ns_ = 0;
  uint64_t groups_prepared_ = 0;
  bool crash_done_ = false;

  // Background-scrubber accounting (INTEGRITY.md). Atomic because metric
  // callbacks read them, and a registry may be snapshotted on any thread.
  std::atomic<uint64_t> scrub_pages_total_{0};
  std::atomic<uint64_t> scrub_errors_total_{0};
  std::atomic<uint64_t> scrub_ns_total_{0};

  // Page-coalescing accounting (DESIGN.md §10), accumulated per prepared
  // group. Atomic for the same reason as the scrub counters.
  std::atomic<uint64_t> gather_coalesced_total_{0};
  std::atomic<uint64_t> gather_requests_total_{0};

  // Observability (all unset unless options_.metrics / options_.trace).
  std::unique_ptr<loaders::LoaderObserver> observer_;
  // Pull-metric lifetimes (OBSERVABILITY.md): destroying these freezes the
  // thread-pool / workspace-pool gauges to their final values even when
  // the registry outlives the loader.
  obs::PullBinding pool_metrics_binding_;
  obs::PullBinding ws_metrics_binding_;
  obs::Counter* groups_total_ = nullptr;
  obs::HistogramMetric* merged_group_hist_ = nullptr;
  obs::Gauge* threshold_gauge_ = nullptr;
  obs::Gauge* window_depth_gauge_ = nullptr;
  uint64_t traced_evictions_ = 0;
};

}  // namespace gids::core

#endif  // GIDS_CORE_GIDS_LOADER_H_
