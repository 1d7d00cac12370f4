#ifndef GIDS_STORAGE_FEATURE_GATHER_H_
#define GIDS_STORAGE_FEATURE_GATHER_H_

#include <cstdint>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "common/workspace_pool.h"
#include "graph/feature_store.h"
#include "graph/types.h"
#include "obs/ledger.h"
#include "sim/aggregation_model.h"
#include "storage/bam_array.h"

namespace gids::storage {

/// Interface for a host-pinned hot-node feature buffer (implemented by
/// core::ConstantCpuBuffer). Gathers check it before touching the cache or
/// storage: hot nodes are served from CPU memory over PCIe (§3.3).
/// Implementations must be safe for concurrent Contains/Fill calls.
class HotNodeBuffer {
 public:
  virtual ~HotNodeBuffer() = default;
  virtual bool Contains(graph::NodeId node) const = 0;
  /// Copies the node's feature vector into `out` (size >= feature_dim).
  virtual void Fill(graph::NodeId node, std::span<float> out) const = 0;
};

/// Traffic counts for one feature gather, keyed by service path. These are
/// the functional inputs to sim::ComputeAggregationTiming; one "request"
/// is one storage-page-sized access (so nodes with page-spanning features
/// count more than once, matching the paper's I/O accounting).
struct FeatureGatherCounts {
  uint64_t nodes = 0;
  uint64_t cpu_buffer_hits = 0;  // page-equivalents served from CPU buffer
  uint64_t gpu_cache_hits = 0;
  uint64_t storage_reads = 0;
  /// Page requests folded into another request for the same page by the
  /// coalescing gather (§2's GPU-side access coalescing): they reached the
  /// cache/storage path but were satisfied by a sibling's round-trip, so
  /// they appear in total_page_requests() (demand the accumulator merged)
  /// but not in serviced_page_requests() (traffic the devices saw).
  /// Members of a dead-lettered group charge nothing here — a failed
  /// access appears in no traffic counter, with coalescing on or off.
  /// Always 0 with coalescing off.
  uint64_t coalesced_requests = 0;
  /// Distinct pages serviced by the coalescing gather — the number of
  /// successfully serviced coalesced groups, equal to the cache/storage
  /// round-trips actually made (gpu_cache_hits + storage_reads on the
  /// coalescing path; dead-lettered groups count nowhere). 0 with
  /// coalescing off (the grouping is never computed).
  uint64_t distinct_pages = 0;
  /// Nodes served incompletely because a storage read exhausted its
  /// retries (FAULTS.md): the failed page slice of the row is zero-filled
  /// and the node is counted here exactly once. 0 unless fault injection
  /// is enabled and a read was dead-lettered.
  uint64_t degraded_nodes = 0;
  /// Nodes served incompletely because a page never verified clean within
  /// its retry budget (Status::DataLoss, INTEGRITY.md): unrepairable
  /// silent corruption. Zero-filled and counted exactly once per node,
  /// disjoint from degraded_nodes' loud-failure accounting.
  uint64_t corrupt_nodes = 0;

  /// Page-granular demand: every access the mini-batch generated,
  /// including ones coalesced away. This is what the accumulator's
  /// storage-share EMA divides by (Eq. 2) — coalescing lowers the share,
  /// which raises the merge threshold, exactly the feedback the paper's
  /// design wants (fewer SSD reads per merged batch => merge more).
  uint64_t total_page_requests() const {
    return cpu_buffer_hits + gpu_cache_hits + storage_reads +
           coalesced_requests;
  }
  /// Page requests that cost a real round-trip (CPU buffer, cache, or
  /// SSD). This is what bounds in-flight storage traffic
  /// (outstanding_accesses) and what the devices bill for.
  uint64_t serviced_page_requests() const {
    return cpu_buffer_hits + gpu_cache_hits + storage_reads;
  }
  void Add(const FeatureGatherCounts& o) {
    nodes += o.nodes;
    cpu_buffer_hits += o.cpu_buffer_hits;
    gpu_cache_hits += o.gpu_cache_hits;
    storage_reads += o.storage_reads;
    coalesced_requests += o.coalesced_requests;
    distinct_pages += o.distinct_pages;
    degraded_nodes += o.degraded_nodes;
    corrupt_nodes += o.corrupt_nodes;
  }
};

/// What one GatherGroup call's own storage reads cost beyond fault-free
/// service (FAULTS.md, INTEGRITY.md). Summed from exactly the reads that
/// call issued, never from StorageArray's process-wide totals, so two
/// gatherers sharing one array each get only their own bill. The
/// sub-ledgers partition the penalty:
///   retry_penalty = crc_verify + degraded_penalty + backoff/spike rest.
struct GatherReceipt {
  TimeNs retry_penalty_ns = 0;
  /// Checksum-verification time, across served and dead-lettered reads.
  TimeNs crc_verify_ns = 0;
  /// Non-CRC penalty of dead-lettered reads (the zero-filled pages).
  TimeNs degraded_penalty_ns = 0;
  /// Reads served by a non-primary replica, the striped device most
  /// failed over FROM and the replica index most failed over TO (ties go
  /// to the lowest index; both 0 without failovers).
  uint64_t failovers = 0;
  int failover_device = 0;
  int failover_replica = 0;

  bool operator==(const GatherReceipt&) const = default;
};

/// One gather call costed as one aggregation-kernel execution: §3.2's
/// accumulator-merged group is a single kernel, so its cost depends only
/// on that call's traffic and the reads it issued.
struct GatherCost {
  sim::AggregationTiming timing;
  /// timing.total_ns + the receipt's retry penalty + mutation time.
  TimeNs kernel_ns = 0;
  /// The call's kernel-path ledger components: cache_hit, cpu_buffer,
  /// storage, transfer, retry_backoff, crc_verify, degraded_fill and
  /// mutation. Sampling, training and overlap_credit stay 0.
  obs::IterationLedger kernel;
  size_t members = 1;

  /// Member `i`'s exact integer share of `kernel`: total / members, plus
  /// 1 ns for the first total % members members, so the shares sum to
  /// each total. The caller adds sampling, training and the overlap
  /// credit by its own overlap rule.
  obs::IterationLedger MemberLedger(size_t i) const;
};

/// The one cost path of both loader modes and the serving tier: times
/// `counts` as one kernel that keeps at most `outstanding_cap` serviced
/// accesses in flight (coalesced-away accesses ride a sibling's read and
/// take no queue slot), extended by the receipt's retry penalty and by
/// `mutation_ns` of journaled writes, and billed over `members` slices.
GatherCost CostGather(const sim::SystemModel& system,
                      const FeatureGatherCounts& counts, uint32_t page_bytes,
                      const GatherReceipt& receipt, uint64_t outstanding_cap,
                      TimeNs mutation_ns, size_t members);

/// One node list and its destination rows within a grouped gather. An
/// empty `out` selects counting mode (no payload movement); all slices of
/// one GatherGroup call must agree on the mode.
struct GatherSlice {
  std::span<const graph::NodeId> nodes;
  std::span<float> out;
};

/// Gathers node feature vectors through the BaM path: constant CPU buffer
/// (optional) -> GPU software cache -> SSD array. Output rows are float32
/// feature vectors in the order of `nodes`.
///
/// With a ThreadPool the gather runs as a shard-keyed two-phase pipeline
/// that is bit-identical to the serial gather for any thread count:
///   Phase 1 (parallel over node chunks): validate ids, serve hot nodes
///     from the CPU buffer, and bucket every page access by the cache
///     shard that owns it, preserving global node order within each
///     bucket (chunks are contiguous and concatenated in index order).
///   Phase 2 (parallel over shards): replay each shard's access sequence
///     in order against the cache/storage path with a per-shard page
///     scratch buffer, then reduce the per-shard counts.
/// Because every cache shard still sees exactly the access sequence the
/// serial gather would have produced, hits, evictions, and pin drains are
/// independent of the thread count. One gather may run at a time; callers
/// (GidsLoader) serialize gathers and parallelize within them.
///
/// Page coalescing (DESIGN.md §10): with `coalesce_pages` on, phase 2
/// groups each shard's replayed access sequence by page (first-occurrence
/// order) and services every distinct page with exactly one cache/storage
/// round-trip, scattering the payload to all requesting output rows.
/// Duplicate nodes in a mini-batch, rows whose features share a page, and
/// repeats across accumulator-merged iterations (GatherGroup) all collapse
/// into one SSD read — the paper's premise that concurrent same-page
/// requests coalesce in the BaM I/O stack (§2). The coalesced service
/// drains all member window-buffer pins at once (BamArray's `reuses`), so
/// end-of-gather cache state matches the uncoalesced books. Grouping is a
/// pure function of the canonical per-shard sequence, so results stay
/// bit-identical at any thread count.
///
/// Degraded mode (FAULTS.md): a storage read that exhausted its retries
/// (Status::Unavailable from the fault-injected array) does not fail the
/// gather. The failed page's slice of each affected output row is
/// zero-filled, the node is counted once in counts->degraded_nodes, and
/// the gather completes. Unrepairable silent corruption (Status::DataLoss
/// from a verifying array, INTEGRITY.md) degrades the same way but is
/// counted separately in counts->corrupt_nodes. Hard device errors
/// (kIoError) still abort. Under coalescing a failed page degrades every
/// row that shares it — the same set an uncoalesced gather flags, because
/// fault outcomes are a pure function of (seed, page, attempt) and nothing
/// is cached on failure, so duplicate uncoalesced re-reads replay the
/// identical outcome.
class FeatureGatherer {
 public:
  /// `hot_buffer` may be null (plain BaM gather). `pool` may be null
  /// (serial gather; also the fallback for single-shard caches).
  /// `coalesce_pages` enables the page-coalescing phase 2 (default off:
  /// every access round-trips individually, the pre-coalescing behaviour).
  FeatureGatherer(const graph::FeatureStore* layout, BamArray* array,
                  const HotNodeBuffer* hot_buffer = nullptr,
                  ThreadPool* pool = nullptr, bool coalesce_pages = false);

  const graph::FeatureStore& layout() const { return *layout_; }

  bool coalesce_pages() const { return coalesce_pages_; }
  /// Not thread-safe against a running gather; flip between gathers only.
  void set_coalesce_pages(bool on) { coalesce_pages_ = on; }

  /// Gathers features for `nodes` into `out` (size >= nodes.size() * dim):
  /// a one-slice GatherGroup. An empty `out` is counting mode: identical
  /// cache/CPU-buffer/storage decisions and counts, no payload movement,
  /// for runs where only the traffic counts feed the timing models
  /// (terabyte-scale benchmark runs).
  Status Gather(std::span<const graph::NodeId> nodes, std::span<float> out,
                FeatureGatherCounts* counts);

  /// Convenience: gather into a freshly allocated buffer.
  StatusOr<std::vector<float>> Gather(std::span<const graph::NodeId> nodes,
                                      FeatureGatherCounts* counts);

  /// Gathers several node lists as one coalescing scope: the accumulator's
  /// merged iterations present their batches together so repeats *across*
  /// iterations also collapse to one round-trip per distinct page. Slices
  /// are processed in order (slice-major node order), so with coalescing
  /// off this is bit-identical to calling Gather once per slice. All
  /// slices must share one mode (every `out` sized >= nodes * dim, or
  /// every `out` empty for counting).
  ///
  /// `per_slice_counts` (size == slices.size()) receives each slice's
  /// share, added in: a serviced round-trip is charged to the slice of the
  /// group's first requester, later members charge coalesced_requests to
  /// their own slice, and degraded/corrupt rows are counted in their own
  /// slice. Summing the entries yields the group totals.
  ///
  /// `receipt`, if given, is overwritten with the penalty and failovers of
  /// the storage reads this call issued. With coalescing off, the receipt
  /// too equals the sum over one call per slice.
  Status GatherGroup(std::span<const GatherSlice> slices,
                     std::span<FeatureGatherCounts> per_slice_counts,
                     GatherReceipt* receipt = nullptr);

 private:
  /// Bucket that owns `page` in phase 2: the cache shard, or a fixed
  /// power-of-two hash bucket when the array is cache-less (the storage
  /// path is commutative, so cache-less bucketing is unconstrained).
  uint32_t BucketFor(uint64_t page) const;

  /// One page access on behalf of one output row (bucket precomputed in
  /// phase 1 so the scatter into per-bucket sequences is a flat copy).
  struct Access {
    uint64_t page;
    uint64_t node;   // index into the slice's `nodes`
    uint32_t slice;  // index into `slices`
    uint32_t bucket;
  };
  /// (slice, node) identifies one output row across the group.
  using RowId = std::pair<uint32_t, uint64_t>;

  struct ChunkScratch {
    Workspace<Access> accesses;      // this chunk's accesses, node order
    Workspace<uint64_t> cpu_hits;    // per slice
    Workspace<uint64_t> per_bucket;  // access count per bucket
    bool bad_node = false;
  };
  struct BucketScratch {
    Workspace<std::byte> page_buf;
    // Coalescing-group scratch: distinct pages in first-occurrence order
    // and their members via counting sort (seq order within each group).
    PooledFlatMap<uint64_t, uint32_t> group_of;  // page -> group id
    Workspace<uint64_t> group_pages;
    Workspace<uint64_t> group_counts;
    Workspace<uint64_t> group_cursor;
    Workspace<uint64_t> members;  // indices into the bucket's seq span
    // Fault paths are rare; plain vectors (empty in the steady state the
    // zero-allocation gate measures).
    std::vector<RowId> degraded;
    std::vector<RowId> corrupt;
    // This call's receipt penalties from the bucket's storage reads.
    TimeNs penalty_ns = 0;
    TimeNs crc_ns = 0;
    TimeNs degraded_ns = 0;
  };

  const graph::FeatureStore* layout_;
  BamArray* array_;
  const HotNodeBuffer* hot_buffer_;
  ThreadPool* pool_;
  bool coalesce_pages_ = false;
  uint32_t cacheless_buckets_ = 1;  // power of two

  // Reusable gather scratch, pool-backed so steady-state gathers allocate
  // nothing. gather_mu_ serializes GatherGroup: the loader already runs one
  // gather at a time (class contract above), and the mutex keeps stray
  // concurrent callers correct instead of racing on the scratch.
  std::mutex gather_mu_;
  Workspace<uint64_t> slice_begin_;
  std::vector<ChunkScratch> chunks_;
  Workspace<Access> seq_;          // per-bucket contiguous, node order
  Workspace<uint64_t> bucket_begin_;  // buckets + 1 offsets into seq_
  Workspace<GatherCounts> bucket_gc_;      // buckets x num_slices
  Workspace<uint64_t> bucket_coalesced_;   // buckets x num_slices
  Workspace<uint64_t> bucket_distinct_;    // buckets x num_slices
  // Failover reads, buckets x (n_ssd primary devices failed over from,
  // then kMaxReplicas replicas failed over to); empty without replicas.
  Workspace<uint64_t> bucket_failovers_;
  std::vector<Status> bucket_status_;
  std::vector<BucketScratch> bucket_scratch_;
  std::vector<RowId> merged_rows_;  // count_union scratch (fault paths)
};

}  // namespace gids::storage

#endif  // GIDS_STORAGE_FEATURE_GATHER_H_
