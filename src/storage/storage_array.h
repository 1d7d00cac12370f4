#ifndef GIDS_STORAGE_STORAGE_ARRAY_H_
#define GIDS_STORAGE_STORAGE_ARRAY_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "obs/metric_registry.h"
#include "sim/ssd_model.h"
#include "storage/block_device.h"
#include "storage/fault_injector.h"
#include "storage/journal.h"
#include "storage/page_integrity.h"
#include "storage/queue_manager.h"
#include "storage/replica_set.h"

namespace gids::storage {

/// An array of `n_ssd` identical NVMe SSDs behind one logical page space,
/// pages striped round-robin (page p lives on device p mod n_ssd). BaM
/// scales collective bandwidth by attaching several SSDs to one GPU
/// (§3.3); striping is what makes that scaling linear.
///
/// The data plane is one logical BlockDevice (striping does not change
/// bytes); the control plane records per-device request counts so the
/// timing models can split closed-loop windows across devices.
///
/// With fault injection enabled (EnableFaultInjection, FAULTS.md), every
/// read runs a bounded-retry loop: failed attempts back off exponentially
/// in virtual time and re-ring the doorbell; reads that exhaust their
/// retries are dead-lettered and surface as Status::Unavailable, which the
/// gather layer turns into a degraded (zero-filled, flagged) node instead
/// of a failed epoch. Without an injector the read path is byte-for-byte
/// the fault-free fast path.
///
/// With integrity verification enabled (EnableIntegrity, INTEGRITY.md),
/// every served attempt is checked against the page's write-time CRC-32C;
/// a mismatch is a failed attempt like any other — it backs off and
/// re-reads under the same retry budget. A read that eventually verifies
/// clean after at least one mismatch counts as one integrity repair; a
/// read whose final attempt still fails verification dead-letters as
/// Status::DataLoss (unrepairable corruption) rather than kUnavailable.
class StorageArray {
 public:
  /// Side-channel of one read, consumed by the caching layer (BamArray).
  struct ReadOutcome {
    /// The winning attempt carried silent corruption that verification is
    /// not configured to catch: the caller received (or, in counting
    /// mode, would have received) wrong bytes. Never true when
    /// verify_reads is on — corrupt attempts are then repaired or
    /// dead-lettered before they can win.
    bool served_corrupt = false;
    /// Write-time checksum of the clean page, for carrying into the cache
    /// line. Valid only when crc_known (functional reads with integrity
    /// enabled; counting mode moves no bytes and tracks corrupt hints
    /// instead).
    uint32_t crc = 0;
    bool crc_known = false;
    /// Replica index that served the winning attempt (0 = the page's
    /// primary); only nonzero with replication enabled, where it marks a
    /// failover read.
    int served_replica = 0;
    /// This read's share of retry_penalty_ns_total / crc_verify_ns_total:
    /// virtual time beyond one fault-free service, and its checksum-
    /// verification part. Set on success and on dead-letter alike, so a
    /// caller can bill exactly the reads it issued (GatherReceipt).
    TimeNs penalty_ns = 0;
    TimeNs crc_ns = 0;
  };

  /// `num_queues`/`queue_depth` size the per-GPU IO queue pairs (BaM
  /// defaults: 128 queues of depth 1024). The aggregate depth bounds the
  /// outstanding storage accesses the accumulator can maintain.
  StorageArray(std::unique_ptr<BlockDevice> device, sim::SsdSpec spec,
               int n_ssd, uint32_t num_queues = 128,
               uint32_t queue_depth = 1024);

  uint32_t page_bytes() const { return device_->block_bytes(); }
  uint64_t num_pages() const { return device_->num_blocks(); }
  int n_ssd() const { return n_ssd_; }
  const sim::SsdSpec& spec() const { return spec_; }

  /// Installs a deterministic fault injector + retry policy on the read
  /// path. Call before issuing reads (not thread-safe against them).
  void EnableFaultInjection(const FaultOptions& faults,
                            const RetryPolicy& retry);
  /// The installed injector, or nullptr when the array is fault-free.
  const FaultInjector* fault_injector() const { return injector_.get(); }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Installs the integrity layer (INTEGRITY.md): a page-tagged CRC-32C
  /// checksummer plus the configured verify points. Call before issuing
  /// reads (not thread-safe against them). With verify_reads the read
  /// loop verifies every served attempt even when no fault injector is
  /// installed (the verification cost is still modeled).
  void EnableIntegrity(const IntegrityOptions& integrity);
  const IntegrityOptions& integrity() const { return integrity_; }
  const PageChecksummer& checksummer() const { return checksummer_; }

  /// Installs the N-way replica set (FAULTS.md "Durability & failover"):
  /// replica r of page p lives on device (p + r) mod n_ssd, and the read
  /// path routes each attempt to the first healthy, fresh replica instead
  /// of pinning the page to its primary. Call before issuing reads.
  void EnableReplication(const ReplicaOptions& options);
  const ReplicaSet* replica_set() const { return replicas_.get(); }

  /// Installs the journaled write path: one CRC-tagged write-ahead journal
  /// per device, coordinated across the replica fan-out. Call after
  /// EnableIntegrity/EnableReplication and before issuing reads. Mutations
  /// flow Submit -> Sync -> Apply (all from one single-flight driver);
  /// reads see a mutation only once the applier checkpoints it into the
  /// striped pages (the overlay).
  void EnableJournal(const JournalOptions& options);
  bool journal_enabled() const { return journal_ != nullptr; }
  JournalCoordinator* journal() { return journal_.get(); }
  const JournalCoordinator* journal() const { return journal_.get(); }

  /// Advances the array's virtual clock (monotonic max). The offline-onset
  /// check and replica health view read it; the loader advances it to the
  /// group-preparation clock at every group boundary, so every routing
  /// decision is a pure function of the prepared-group prefix.
  void AdvanceClock(TimeNs now_ns) {
    TimeNs cur = clock_ns_.load(std::memory_order_relaxed);
    while (now_ns > cur && !clock_ns_.compare_exchange_weak(
                               cur, now_ns, std::memory_order_relaxed)) {
    }
  }
  TimeNs clock_ns() const { return clock_ns_.load(std::memory_order_relaxed); }

  /// True when `device` is reachable at the current virtual clock.
  bool DeviceOnline(int device) const {
    return injector_ == nullptr ||
           !injector_->options().DeviceOffline(device, clock_ns());
  }

  /// Submits one mutation to the journal (fan-out to its home page's
  /// reachable replica journals). Returns the assigned LSN.
  uint64_t SubmitMutation(MutationRecord rec);
  /// Syncs every reachable device journal (group-boundary durability
  /// point). Returns the number of journals whose durable tail advanced.
  uint64_t SyncJournals();
  /// The background-applier step: checkpoints up to `budget` durable
  /// records (0 = all ready) into the striped pages, in strict LSN order.
  /// `on_applied`, if given, runs once per record with the storage pages
  /// the apply touched — the loader invalidates cache lines and refreshes
  /// CPU-buffer rows from it. Returns the number of records applied.
  uint64_t ApplyJournal(
      uint64_t budget,
      const std::function<void(const MutationRecord&,
                               std::span<const uint64_t> pages)>& on_applied =
          nullptr);
  /// Deterministic crash at the current instant: un-synced journal tails
  /// are truncated at a (crash_seed, device)-chosen point. Checkpointed
  /// pages (the overlay) and synced journal prefixes survive.
  void CrashJournal(uint64_t crash_seed);
  /// Crash-recovery replay; returns the number of surviving records
  /// replayed above the applied watermark (see JournalCoordinator).
  uint64_t RecoverJournal();

  /// Write-time checksum of `page`'s clean contents, computed lazily from
  /// the backing device patched with the applied-mutation overlay (the
  /// device regenerates pristine ground truth; corruption is injected
  /// above it; applied journal records update it) and memoized. Thread-
  /// safe; the applier invalidates the memo of every page it rewrites.
  uint32_t ExpectedChecksum(uint64_t page);

  /// Reads one page into `out`. Under fault injection, retries
  /// transparently; Status::Unavailable means the retries were exhausted
  /// (dead-lettered) and `out` holds no valid data; Status::DataLoss means
  /// the page was served but never verified clean (unrepairable silent
  /// corruption). `oc`, if given, receives the integrity side-channel.
  ///
  /// An empty `out` is counting mode (the large-scale timing benchmarks):
  /// the access is recorded and drives the queue pair without moving
  /// bytes, with identical retry/fault/verification decisions (corruption
  /// detection is modeled off the injector's decision, which the CRC
  /// compare reproduces exactly — see FaultInjector::Corrupt), so counting
  /// and byte-moving runs report the same retry/timeout/repair/dead-letter
  /// counters. Thread-safe: counters are atomic sums, so totals are
  /// independent of the order concurrent gather shards issue their reads.
  Status ReadPage(uint64_t page, std::span<std::byte> out,
                  ReadOutcome* oc = nullptr);

  const QueueManager& queues() const { return queues_; }
  /// Maximum storage accesses that can be in flight across all queues.
  uint64_t queue_capacity() const { return queues_.total_depth(); }

  /// Device index that owns `page` under round-robin striping.
  int DeviceFor(uint64_t page) const {
    return static_cast<int>(page % static_cast<uint64_t>(n_ssd_));
  }

  uint64_t total_reads() const {
    return total_reads_.load(std::memory_order_relaxed);
  }
  uint64_t reads_on_device(int d) const {
    return per_device_reads_[d].load(std::memory_order_relaxed);
  }

  /// Failed attempts that were retried (one per backoff taken).
  uint64_t retries_total() const {
    return retries_total_.load(std::memory_order_relaxed);
  }
  /// Attempts abandoned at the per-attempt timeout (stuck queue, or a
  /// latency spike past the deadline).
  uint64_t timeouts_total() const {
    return timeouts_total_.load(std::memory_order_relaxed);
  }
  /// Reads abandoned after exhausting max_retries (surfaced to the caller
  /// as Status::Unavailable).
  uint64_t dead_letters_total() const {
    return dead_letters_total_.load(std::memory_order_relaxed);
  }
  /// Virtual nanoseconds spent in retry backoff across all reads. Pure
  /// function of (fault_seed, page set): reproducible run to run.
  uint64_t retry_backoff_ns_total() const {
    return retry_backoff_ns_total_.load(std::memory_order_relaxed);
  }
  /// Total virtual-time penalty of faults across all reads: backoff plus
  /// failed-attempt service/timeout charges plus latency spikes plus
  /// checksum-verification time. A process-wide total for metrics; the
  /// per-read share travels in ReadOutcome, and each gather bills its own
  /// reads' shares (GatherReceipt) into its kernel time, so faults (and
  /// verify-on-read overhead) cost virtual time end to end (FAULTS.md §2).
  uint64_t retry_penalty_ns_total() const {
    return retry_penalty_ns_total_.load(std::memory_order_relaxed);
  }
  /// Checksum-verification share of retry_penalty_ns_total: crc_verify_ns
  /// per verified attempt, across successful and dead-lettered reads.
  /// Disjoint sub-ledger for the iteration cost ledger (OBSERVABILITY.md):
  /// retry_penalty = crc_verify + degraded_penalty + backoff/spike rest.
  uint64_t crc_verify_ns_total() const {
    return crc_verify_ns_total_.load(std::memory_order_relaxed);
  }
  /// Non-CRC share of the penalty charged by reads that exhausted their
  /// retries and were dead-lettered (the attempts wasted on pages the
  /// caller ultimately zero-filled). Disjoint from crc_verify_ns_total.
  uint64_t degraded_penalty_ns_total() const {
    return degraded_penalty_ns_total_.load(std::memory_order_relaxed);
  }

  /// Served attempts that were checksum-verified (verify_reads).
  uint64_t verified_reads_total() const {
    return verified_reads_total_.load(std::memory_order_relaxed);
  }
  /// Verified attempts whose checksum did not match (each was retried or
  /// dead-lettered).
  uint64_t checksum_mismatches_total() const {
    return checksum_mismatches_total_.load(std::memory_order_relaxed);
  }
  /// Reads that saw at least one checksum mismatch and still completed
  /// with verified-clean data (the re-read repaired them).
  uint64_t integrity_repairs_total() const {
    return integrity_repairs_total_.load(std::memory_order_relaxed);
  }
  /// Reads dead-lettered because their final attempt failed verification
  /// (surfaced as Status::DataLoss; a subset of dead_letters_total).
  uint64_t data_loss_total() const {
    return data_loss_total_.load(std::memory_order_relaxed);
  }

  /// Reads whose winning attempt was served by a non-primary replica
  /// (failover reads). 0 without replication.
  uint64_t replica_failovers_total() const {
    return replica_failovers_total_.load(std::memory_order_relaxed);
  }
  /// Reads routed with no healthy, fresh replica left (they cycle the
  /// doomed copies and, failing, dead-letter). Quorum-lost is the only
  /// path on which a replicated read still zero-fills.
  uint64_t replica_quorum_lost_total() const {
    return replica_quorum_lost_total_.load(std::memory_order_relaxed);
  }
  /// Failover reads whose primary was device `d` (where reads failed FROM).
  uint64_t failovers_from_device(int d) const {
    return failovers_from_device_[d].load(std::memory_order_relaxed);
  }
  /// Successful reads served by replica index `r` (r = 0 is the primary).
  uint64_t reads_by_replica(int r) const {
    return reads_by_replica_[r].load(std::memory_order_relaxed);
  }

  void ResetCounters();

  /// Exposes the array through `registry`: read counters (total and
  /// per-device), queue-pair doorbell traffic, an outstanding-request
  /// gauge, a request-size histogram observed on every read, and the
  /// fault/retry series (gids_storage_retries_total, _timeouts_total,
  /// _dead_letters_total, _faults_injected_total, retry-latency histogram).
  /// With `attribution_series` the penalty sub-ledgers are also exported
  /// (gids_storage_crc_verify_ns_total, _degraded_penalty_ns_total); off by
  /// default so runs without attribution sinks keep their exact metric set.
  void BindMetrics(obs::MetricRegistry* registry, const obs::Labels& labels,
                   bool attribution_series = false);

 private:
  /// Allocates the lazy expected-checksum table on first use.
  void EnsureChecksumTable();
  /// Ground-truth page contents: the backing device patched with the
  /// applied-mutation overlay. Byte-for-byte the raw device read when the
  /// journal is off or the page was never mutated.
  Status ReadCleanPage(uint64_t page, std::span<std::byte> out) const;
  /// Checkpoints one applied record's payload into the overlay pages,
  /// refreshes their checksum memos, and appends the touched pages to
  /// `pages` (cleared first).
  void ApplyRecordToPages(const MutationRecord& rec,
                          std::vector<uint64_t>* pages);
  /// Post-success bookkeeping shared by both modes. `device` is the
  /// striped device that served the read (the primary unless a replica
  /// failover rerouted it).
  void CountRead(uint64_t /*page*/, int device) {
    total_reads_.fetch_add(1, std::memory_order_relaxed);
    per_device_reads_[device].fetch_add(1, std::memory_order_relaxed);
    if (request_bytes_hist_ != nullptr) {
      request_bytes_hist_->Observe(page_bytes());
    }
  }

  std::unique_ptr<BlockDevice> device_;
  sim::SsdSpec spec_;
  int n_ssd_;
  QueueManager queues_;
  std::unique_ptr<FaultInjector> injector_;  // null = fault-free fast path
  RetryPolicy retry_;
  IntegrityOptions integrity_;
  PageChecksummer checksummer_{IntegrityOptions{}.crc_seed};
  /// Lazy memo of write-time checksums: 0 = not yet computed, else
  /// (1 << 32) | crc. Allocated on first ExpectedChecksum call so
  /// counting-mode runs over terabyte-scale page spaces never pay for it.
  std::unique_ptr<std::atomic<uint64_t>[]> checksums_;
  std::once_flag checksums_once_;
  std::atomic<uint64_t> total_reads_{0};
  std::atomic<uint64_t> retries_total_{0};
  std::atomic<uint64_t> timeouts_total_{0};
  std::atomic<uint64_t> dead_letters_total_{0};
  std::atomic<uint64_t> retry_backoff_ns_total_{0};
  std::atomic<uint64_t> retry_penalty_ns_total_{0};
  std::atomic<uint64_t> crc_verify_ns_total_{0};
  std::atomic<uint64_t> degraded_penalty_ns_total_{0};
  std::atomic<uint64_t> verified_reads_total_{0};
  std::atomic<uint64_t> checksum_mismatches_total_{0};
  std::atomic<uint64_t> integrity_repairs_total_{0};
  std::atomic<uint64_t> data_loss_total_{0};
  std::unique_ptr<std::atomic<uint64_t>[]> per_device_reads_;
  obs::HistogramMetric* request_bytes_hist_ = nullptr;   // registry-owned
  obs::HistogramMetric* retry_latency_hist_ = nullptr;   // registry-owned

  /// Virtual clock of the array (monotonic; loader-advanced). Gates the
  /// offline-device onset and the replica health view.
  std::atomic<TimeNs> clock_ns_{0};
  std::unique_ptr<ReplicaSet> replicas_;        // null = single copy
  std::unique_ptr<JournalCoordinator> journal_; // null = read-only pages
  /// Checkpointed page contents (pages the applier rewrote). The backing
  /// FunctionBlockDevice regenerates pristine bytes only, so mutated pages
  /// live here; ReadCleanPage patches reads through it. Reader-heavy:
  /// gather threads take the shared lock, the single-flight applier the
  /// exclusive one.
  mutable std::shared_mutex overlay_mu_;
  std::unordered_map<uint64_t, std::vector<std::byte>> overlay_;
  std::atomic<uint64_t> replica_failovers_total_{0};
  std::atomic<uint64_t> replica_quorum_lost_total_{0};
  std::unique_ptr<std::atomic<uint64_t>[]> failovers_from_device_;
  std::unique_ptr<std::atomic<uint64_t>[]> reads_by_replica_;
};

}  // namespace gids::storage

#endif  // GIDS_STORAGE_STORAGE_ARRAY_H_
