#ifndef GIDS_CORE_GIDS_LOADER_H_
#define GIDS_CORE_GIDS_LOADER_H_

#include <atomic>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
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
#include "storage/bam_array.h"
#include "storage/feature_gather.h"
#include "storage/software_cache.h"
#include "storage/storage_array.h"

namespace gids::core {

/// Configuration of the GIDS dataloader. Disabling all three techniques
/// yields the plain BaM dataloader baseline (GPU-initiated storage access,
/// random-eviction software cache, per-iteration kernels) that the paper
/// compares against.
struct GidsOptions {
  bool use_accumulator = true;
  double accumulator_target = 0.95;        // fraction of peak SSD IOPs
  uint32_t max_merged_iterations = 16;     // batch-buffer memory bound

  bool use_window_buffering = true;
  int window_depth = 8;                    // paper default (§3.4)
  /// Derive the depth from the cache-to-minibatch ratio at runtime
  /// (AutoWindowDepth) instead of using window_depth.
  bool auto_window_depth = false;

  bool use_cpu_buffer = true;
  double cpu_buffer_fraction = 0.10;       // of the feature data size
  HotMetric hot_metric = HotMetric::kReversePageRank;
  /// Optional user-supplied hot-node ranking (hottest first), overriding
  /// hot_metric (§3.3: users may pin by alternative metrics). Must outlive
  /// the loader.
  const std::vector<graph::NodeId>* hot_node_order = nullptr;

  /// GPU software cache size; 0 uses the system config's (scaled) value.
  uint64_t gpu_cache_bytes = 0;

  /// Replacement/admission policy for the software cache and the static
  /// hot-buffer ranking (CACHING.md). The default names the paper's full
  /// stack: random eviction + window pinning + a structurally ranked hot
  /// buffer — bit-identical to the pre-framework behavior. kPresample
  /// runs a presample pass at construction and ranks by observed
  /// frequency instead; GidsOptions::Bam() selects kRandom.
  storage::CachePolicyKind cache_policy =
      storage::CachePolicyKind::kPageRankHot;
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
  /// drift. 0 disables live re-ranking. Group-scoped and single-flight,
  /// so re-ranking is deterministic at any host_threads/prefetch_depth.
  uint32_t presample_rerank_groups = 0;

  /// IO queue-pair geometry (BaM defaults). The aggregate depth caps the
  /// outstanding storage accesses the accumulator can maintain.
  uint32_t io_queues = 128;
  uint32_t io_queue_depth = 1024;

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

  /// Host-side data-preparation parallelism: worker threads for the
  /// parallel sampling of accumulator-merged iterations and the sharded
  /// feature gather. 1 keeps preparation on the calling thread. Results
  /// are bit-identical across values (see DESIGN.md "Host parallelism").
  uint32_t host_threads = 1;

  /// Accumulator groups to prepare asynchronously ahead of consumption
  /// (double buffering: iteration i trains while group i+1 samples and
  /// gathers on the pool). 0 prepares groups inline in Next(). Any
  /// nonzero value creates the host pool even with host_threads == 1.
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

  /// --- Storage fault injection & resilience (FAULTS.md). All defaults
  /// keep the fault layer disabled: the storage read path is then
  /// byte-for-byte the pre-fault fast path.
  /// Per-attempt transient command-error probability on storage reads.
  double fault_rate = 0.0;
  /// Seed of the deterministic fault stream (decisions are pure functions
  /// of (fault_seed, page, attempt); same seed => same faults, at any
  /// host_threads value).
  uint64_t fault_seed = 0xfa017;
  /// Per-attempt latency-spike probability and magnitude; a spike that
  /// pushes an attempt past io_timeout_ns becomes a timeout.
  double latency_spike_rate = 0.0;
  TimeNs latency_spike_ns = 500 * kNsPerUs;
  /// Per-attempt probability that the submission queue stalls (the command
  /// is abandoned at io_timeout_ns and retried).
  double stuck_queue_rate = 0.0;
  /// Striped SSD indices to take offline; their pages always exhaust
  /// retries and degrade (or fail over, with replication). Empty = none.
  std::vector<int> offline_devices;
  /// Virtual-time onset of the outage: the offline set is healthy before
  /// this loader-clock instant and dark from it onward. 0 = offline from
  /// the start.
  TimeNs offline_at_ns = 0;
  /// Retry policy: attempts = io_max_retries + 1; exponential backoff
  /// starting at io_backoff_ns (doubling, capped at RetryPolicy's fixed
  /// backoff_cap_ns); per-attempt command timeout io_timeout_ns. All in
  /// virtual time.
  uint32_t io_max_retries = 4;
  TimeNs io_timeout_ns = 1 * kNsPerMs;
  TimeNs io_backoff_ns = 20 * kNsPerUs;

  /// --- End-to-end data integrity (INTEGRITY.md). All defaults keep the
  /// integrity layer disabled; the read path and benchmark output are
  /// then bit-identical to the pre-integrity build.
  /// Per-attempt probability that a successful storage read serves
  /// silently corrupted bytes (no error status). Deterministic in
  /// (fault_seed, page, attempt), like the loud fault modes.
  double corruption_rate = 0.0;
  /// Seed of the page-tagged CRC-32C checksum space.
  uint64_t crc_seed = 0xc3c32c;
  /// Verify every storage read against the page's write-time checksum;
  /// mismatches re-read under the retry budget (repair) and dead-letter
  /// as unrepairable corruption when the budget runs out.
  bool verify_reads = false;
  /// Verify page payloads as they are inserted into the software cache
  /// (corrupt fills are rejected).
  bool verify_cache_fill = false;
  /// Re-verify resident cache lines on every hit; mismatched lines are
  /// quarantined and re-read from storage.
  bool verify_cache_hit = false;
  /// Background scrubber budget: resident cache lines (plus pinned CPU
  /// buffer rows) verified per merged iteration, walked in virtual time
  /// between iterations. 0 disables the scrubber.
  uint32_t scrub_pages_per_iter = 0;
  /// Modeled virtual-time cost of one checksum verification.
  TimeNs crc_verify_ns = 1 * kNsPerUs;

  /// --- Durability & replication (FAULTS.md "Durability & failover").
  /// All defaults keep the subsystem disabled: no replica routing, no
  /// journals, no mutation stream, and RESULT_JSON bit-identical to the
  /// pre-replication build.
  /// Copies of every page across the striped devices (replica r of page p
  /// lives on device (p + r) % n_ssd). 1 = single-copy (off); > 1 turns
  /// on replica-aware read routing and write fan-out.
  int replication_factor = 1;
  /// Journal fan-outs that must fsync before a record is quorum-durable.
  /// 0 = majority (factor / 2 + 1).
  int write_quorum = 0;
  /// Journaled feature-row overwrites submitted per training iteration.
  /// > 0 enables the journaled write path (mutation stream + applier).
  uint32_t updates_per_iter = 0;
  /// Journaled edge insert/delete records submitted per iteration
  /// (durably logged and counted; not folded into the CSC topology).
  uint32_t edge_ops_per_iter = 0;
  /// Seed the mutation stream is a pure function of.
  uint64_t mutation_seed = 0x6d7574a73ull;
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
    o.cache_policy = storage::CachePolicyKind::kRandom;
    o.display_name = "BaM";
    return o;
  }
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
  StatusOr<loaders::LoaderBatch> Next() override;
  /// Banks the consumed batch's seed/block/feature storage for reuse by a
  /// later iteration (the zero-allocation loop, DESIGN.md §11). Safe to
  /// call from the consumer thread while a prefetch task prepares groups.
  void Recycle(loaders::LoaderBatch&& batch) override;
  TimeNs elapsed_ns() const override { return elapsed_ns_; }
  uint64_t iterations() const override { return iterations_; }

  const GidsOptions& options() const { return options_; }
  const storage::SoftwareCache& cache() const { return *cache_; }
  storage::SoftwareCache& mutable_cache() { return *cache_; }
  const StorageAccessAccumulator& accumulator() const { return *accumulator_; }
  /// Effective look-ahead depth (resolved on first use in auto mode).
  int window_depth() const { return resolved_window_depth_; }
  const ConstantCpuBuffer* cpu_buffer() const { return cpu_buffer_.get(); }
  /// The plugged cache policy (owned unless shared_cache_policy was set).
  const storage::CachePolicy& cache_policy() const { return *policy_; }
  const storage::StorageArray& storage_array() const { return *storage_; }
  /// The host data-preparation pool (null when host_threads == 1 and
  /// prefetch is off).
  const ThreadPool* host_pool() const { return pool_.get(); }

 private:
  struct Pending {
    uint64_t iteration = 0;  // global iteration index (RNG stream key)
    std::vector<graph::NodeId> seeds;
    sampling::MiniBatch batch;
    TimeNs sampling_ns = 0;
    bool sampled = false;
    bool registered = false;  // entered the window buffer
  };

  /// Samples ahead until at least `count` mini-batches are pending. Seed
  /// batches are drawn serially (the seed iterator is stateful); the
  /// sampler calls run on the pool when the sampler is concurrent-safe,
  /// each iteration on its own deterministic RNG stream.
  void EnsureSampledAhead(size_t count);
  /// Registers every pending batch in [0, count) with the window buffer.
  void RegisterWindow(size_t count);
  /// Prepares the next accumulator group. Never runs concurrently with
  /// itself: Next() runs it inline only while no prefetch is in flight,
  /// and the prefetch task is single-flight.
  StatusOr<std::vector<loaders::LoaderBatch>> PrepareGroupBatches();
  /// Launches the prefetch task if prefetching is on, none is running,
  /// and the staging buffer has room.
  void MaybeLaunchPrefetch();
  /// Pool task: prepares groups until the staging buffer is full.
  void PrefetchTask();

  const graph::Dataset* dataset_;
  sampling::Sampler* sampler_;
  sampling::SeedIterator* seeds_;
  const sim::SystemModel* system_;
  GidsOptions options_;

  std::unique_ptr<storage::StorageArray> storage_;
  std::unique_ptr<storage::CachePolicy> owned_policy_;
  storage::CachePolicy* policy_ = nullptr;  // never null after the ctor
  std::unique_ptr<storage::SoftwareCache> cache_;
  std::unique_ptr<storage::BamArray> bam_;
  std::unique_ptr<ConstantCpuBuffer> cpu_buffer_;
  std::unique_ptr<storage::FeatureGatherer> gatherer_;
  std::unique_ptr<WindowBuffer> window_;
  std::unique_ptr<StorageAccessAccumulator> accumulator_;
  std::unique_ptr<ThreadPool> pool_;

  std::deque<Pending> pending_;
  std::deque<loaders::LoaderBatch> ready_;
  /// Consumed Pendings parked for reuse: their seeds vector and MiniBatch
  /// blocks keep their capacity across iterations. Touched only by the
  /// single-flight group preparation, so no lock.
  std::vector<Pending> pending_free_;
  /// Recycle() deposits; group preparation withdraws. Guarded by
  /// recycle_mu_ because the consumer thread recycles while the prefetch
  /// task prepares.
  std::mutex recycle_mu_;
  std::vector<sampling::MiniBatch> batch_free_;
  std::vector<std::vector<float>> features_free_;

  // Group-preparation scratch, reused across calls (single-flight, like
  // the gatherer's members): pool-backed so steady-state groups allocate
  // nothing.
  Workspace<size_t> sample_todo_;
  Workspace<storage::GatherSlice> gather_slices_;
  Workspace<storage::FeatureGatherCounts> slice_counts_;
  Workspace<storage::SoftwareCache::ScrubResult> scrub_results_;

  // Live re-rank state for kPresample (presample_rerank_groups > 0):
  // cumulative observed node frequencies (presample counts + every
  // consumed batch's input-node composition) and the group countdown.
  // Touched only by the single-flight group preparation.
  Workspace<uint64_t> live_freq_;
  uint64_t groups_since_rerank_ = 0;
  bool presample_live_rerank_ = false;

  uint64_t next_sample_iteration_ = 0;
  int resolved_window_depth_ = 0;
  TimeNs elapsed_ns_ = 0;
  uint64_t iterations_ = 0;

  // Durability & replication (FAULTS.md "Durability & failover"). All
  // touched only by the single-flight group preparation, except the
  // storage array's virtual clock (atomic, advanced at prep start so
  // offline_at_ns onsets are a pure function of groups prepared).
  std::unique_ptr<MutationStream> mutations_;
  /// Sum of the e2e_ns of every group prepared so far — the loader-clock
  /// instant the NEXT group preparation starts at.
  TimeNs prep_clock_ns_ = 0;
  uint64_t groups_prepared_ = 0;
  /// Iterations whose mutations have been submitted (the stream is
  /// submitted through the group's last iteration before its gathers).
  uint64_t mutations_through_iter_ = 0;
  bool crash_done_ = false;

  // Prefetch hand-off: the pool task pushes prepared groups into staged_;
  // Next() drains them. stage_mu_ guards everything in this block.
  std::mutex stage_mu_;
  std::condition_variable stage_cv_;
  std::deque<std::vector<loaders::LoaderBatch>> staged_;
  Status prefetch_status_ = Status::OK();
  bool prefetch_running_ = false;
  bool stopping_ = false;

  // Observability (all unset unless options_.metrics / options_.trace).
  // LoaderObserver is not thread-safe; obs_mu_ serializes the consumer
  // thread's RecordIteration against the prefetch task's Instant calls.
  // Background-scrubber accounting (INTEGRITY.md). Atomic because the
  // prefetch task scrubs while the consumer thread may snapshot metrics.
  std::atomic<uint64_t> scrub_pages_total_{0};
  std::atomic<uint64_t> scrub_errors_total_{0};
  std::atomic<uint64_t> scrub_ns_total_{0};

  // Page-coalescing accounting (DESIGN.md §10), accumulated per prepared
  // group. Atomic for the same prefetch-vs-snapshot reason as above.
  std::atomic<uint64_t> gather_coalesced_total_{0};
  std::atomic<uint64_t> gather_requests_total_{0};

  std::mutex obs_mu_;
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
