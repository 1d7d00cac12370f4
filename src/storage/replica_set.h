#ifndef GIDS_STORAGE_REPLICA_SET_H_
#define GIDS_STORAGE_REPLICA_SET_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "common/check.h"

namespace gids::storage {

/// Knobs of the N-way replica set (FAULTS.md "Durability & failover").
/// The default factor of 1 disables replication entirely: placement,
/// routing, and every read/write decision are then byte-for-byte the
/// single-copy behaviour.
struct ReplicaOptions {
  /// Copies of every page. Replica r of page p lives on striped device
  /// (p + r) mod n_ssd, so replica groups rotate across the array and a
  /// single device loss degrades every group by exactly one copy.
  /// Requires replication_factor <= n_ssd (and <= kMaxReplicas).
  int replication_factor = 1;
  /// Journal syncs required before a mutation counts as durable and may
  /// be applied. 0 picks the majority, floor(replication_factor / 2) + 1.
  /// Lowering it trades durability for write availability under device
  /// loss (a 2-way set with majority quorum stalls writes when either
  /// copy is offline, exactly like a real RF=2 deployment).
  int write_quorum = 0;

  bool enabled() const { return replication_factor > 1; }

  int EffectiveQuorum() const {
    if (write_quorum > 0) return write_quorum;
    return replication_factor / 2 + 1;
  }
  bool operator==(const ReplicaOptions&) const = default;
};

/// Placement and freshness view of the replica set. Placement is pure
/// arithmetic (no state); the freshness side tracks, per device, the
/// highest journal LSN whose apply reached that device, and per page the
/// LSN of its latest applied mutation. A replica is *fresh* for a page
/// when its applied watermark covers the page's latest mutation — devices
/// that were offline during an apply step lag behind and are skipped by
/// read routing until they catch up (they never do in the current model:
/// offline is permanent for the run).
///
/// Concurrency: NoteApplied runs only inside the single-flight group
/// preparation (the journal applier); IsFresh runs concurrently from the
/// gather threads. A shared mutex keeps the phases race-free without
/// serializing readers against each other.
class ReplicaSet {
 public:
  static constexpr int kMaxReplicas = 8;

  ReplicaSet(int n_devices, const ReplicaOptions& options)
      : n_devices_(n_devices), options_(options) {
    GIDS_CHECK(n_devices_ > 0);
    GIDS_CHECK(options_.replication_factor >= 1);
    GIDS_CHECK(options_.replication_factor <= kMaxReplicas);
    GIDS_CHECK(options_.replication_factor <= n_devices_);
    GIDS_CHECK(options_.EffectiveQuorum() <= options_.replication_factor);
    applied_lsn_ = std::make_unique<std::atomic<uint64_t>[]>(n_devices_);
  }

  int factor() const { return options_.replication_factor; }
  int quorum() const { return options_.EffectiveQuorum(); }
  const ReplicaOptions& options() const { return options_; }

  /// Striped device holding replica `r` of `page` (r = 0 is the primary).
  int Device(uint64_t page, int r) const {
    return static_cast<int>((page + static_cast<uint64_t>(r)) %
                            static_cast<uint64_t>(n_devices_));
  }

  /// Records that the apply of journal record `lsn` (which mutated `page`)
  /// reached device `device`. Called once per online home device by the
  /// applier, in LSN order, inside the single-flight apply step.
  void NoteApplied(uint64_t page, uint64_t lsn, int device) {
    std::lock_guard<std::mutex> lock(page_mu_);
    uint64_t& latest = page_lsn_[page];
    if (lsn > latest) latest = lsn;
    std::atomic<uint64_t>& w = applied_lsn_[device];
    if (lsn > w.load(std::memory_order_relaxed)) {
      w.store(lsn, std::memory_order_release);
    }
  }

  /// True when `device`'s applied watermark covers `page`'s latest applied
  /// mutation (a never-mutated page is fresh everywhere).
  bool IsFresh(uint64_t page, int device) const {
    uint64_t latest;
    {
      std::lock_guard<std::mutex> lock(page_mu_);
      auto it = page_lsn_.find(page);
      if (it == page_lsn_.end()) return true;
      latest = it->second;
    }
    return applied_lsn_[device].load(std::memory_order_acquire) >= latest;
  }

  /// Device `device`'s applied-LSN watermark (0 = nothing applied).
  uint64_t AppliedLsn(int device) const {
    return applied_lsn_[device].load(std::memory_order_acquire);
  }

  /// Freshness/topology-aware read routing: the striped device attempt
  /// `attempt` of a read of `page` should target. Preference order is
  /// healthy-and-fresh replicas in topology order (primary first);
  /// successive attempts cycle through them, so a transient fault on one
  /// copy retries on the next instead of hammering the same device. When
  /// no replica is healthy and fresh the attempt cycles the remaining
  /// (doomed) copies and `quorum_lost`, if given, is set — the read will
  /// dead-letter, which is the only case replication still zero-fills.
  /// `healthy(device)` must be a pure function of configuration and the
  /// virtual clock, never of call order, to keep routing deterministic.
  int RouteAttempt(uint64_t page, uint32_t attempt,
                   const std::function<bool(int)>& healthy, int* replica_out,
                   bool* quorum_lost = nullptr) const;

 private:
  int n_devices_;
  ReplicaOptions options_;
  /// Per-device applied watermark. Atomic so routing can read it while the
  /// applier (single-flight) advances it.
  std::unique_ptr<std::atomic<uint64_t>[]> applied_lsn_;
  /// Latest applied LSN per mutated page. Small (only touched pages) and
  /// guarded: gather threads query it concurrently while the applier owns
  /// the only write phase.
  mutable std::mutex page_mu_;
  std::unordered_map<uint64_t, uint64_t> page_lsn_;
};

}  // namespace gids::storage

#endif  // GIDS_STORAGE_REPLICA_SET_H_
