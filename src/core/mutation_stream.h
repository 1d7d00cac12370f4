#ifndef GIDS_CORE_MUTATION_STREAM_H_
#define GIDS_CORE_MUTATION_STREAM_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "graph/feature_store.h"
#include "storage/journal.h"
#include "storage/storage_array.h"

namespace gids::core {

/// Knobs of the synthetic mutation workload (FAULTS.md "Durability &
/// failover"): how many journaled writes each training iteration submits
/// alongside its gathers, and the seed the stream is a pure function of.
struct MutationStreamOptions {
  uint32_t updates_per_iter = 0;   // feature-row overwrites per iteration
  uint32_t edge_ops_per_iter = 0;  // edge insert/delete records per iteration
  uint64_t mutation_seed = 0x6d7574a73ull;

  bool enabled() const { return updates_per_iter + edge_ops_per_iter > 0; }
  bool operator==(const MutationStreamOptions&) const = default;
};

/// Deterministic generator + submission driver of the journaled write
/// path. The stream of mutation records is a pure function of
/// (options, feature layout): record i is generated by a sequential
/// SplitMix64 walk and its header cached, so LSN i+1 always names the
/// same record — which is what makes crash recovery resubmission
/// (regenerate a lost record byte-identically and resubmit it at its
/// original LSN) and the recovered-run bit-identity test possible.
///
/// Per iteration the stream emits `updates_per_iter` feature updates
/// (node drawn from the walk; each update bumps that node's row version
/// and carries the full versioned row as payload, regenerated from
/// (node, version) at every submission) followed by
/// `edge_ops_per_iter` topology deltas (insert/delete by a draw bit;
/// placed on a hashed home page). Edge deltas are journaled, replicated,
/// and counted, but are NOT folded back into the immutable CSC topology —
/// a documented limitation; the subsystem under test is the durable write
/// path, not dynamic-graph sampling.
///
/// Not thread-safe: driven from the loader's single-flight group
/// preparation step only.
class MutationStream {
 public:
  MutationStream(const graph::FeatureStore* features,
                 const MutationStreamOptions& options);

  const MutationStreamOptions& options() const { return options_; }
  uint32_t records_per_iter() const {
    return options_.updates_per_iter + options_.edge_ops_per_iter;
  }

  /// Submits every not-yet-submitted record of iterations
  /// [0, through_iteration) to the array's journal, in stream order with
  /// lsn = 0 (so assigned LSNs equal record index + 1). Returns the number
  /// of records submitted by this call.
  uint64_t SubmitThrough(storage::StorageArray* array,
                         uint64_t through_iteration);

  /// Regenerates and resubmits, at their original LSNs, the records a
  /// crash lost from every journal (the array journal's MissingLsns up to
  /// the high-water submitted LSN). Must run after RecoverJournal and
  /// before further SubmitThrough calls. Returns the count resubmitted.
  uint64_t ResubmitMissing(storage::StorageArray* array);

  /// Apply-side hook: the loader calls this from the ApplyJournal
  /// callback. It advances the applied-version table and the visibility
  /// counters to the applied prefix.
  void OnApplied(const storage::MutationRecord& rec);

  /// The row version every node's feature row is at once the applied
  /// prefix is visible (one entry per node, 0 = never updated). Written
  /// only by OnApplied; the loader's block device and constant CPU buffer
  /// serve each row at this version. Allocated once, so the span stays
  /// valid for the stream's lifetime.
  std::span<const uint64_t> applied_versions() const {
    return applied_versions_;
  }

  uint64_t submitted_records() const { return submitted_; }
  uint64_t feature_updates_applied() const { return feature_updates_applied_; }
  uint64_t edge_inserts_applied() const { return edge_inserts_applied_; }
  uint64_t edge_deletes_applied() const { return edge_deletes_applied_; }

  /// Header of the record at stream index `index` (LSN index + 1),
  /// generating and caching the prefix on demand. A feature update's
  /// payload is left empty: its bytes are FillFeatureAt(key, arg).
  const storage::MutationRecord& Record(uint64_t index);

 private:
  void GenerateUpTo(uint64_t index);
  /// `header` with its payload, as submitted to the journal.
  storage::MutationRecord WithPayload(
      const storage::MutationRecord& header) const;

  const graph::FeatureStore* features_;
  MutationStreamOptions options_;
  SplitMix64 rng_;

  std::vector<storage::MutationRecord> records_;  // headers only
  std::unordered_map<graph::NodeId, uint64_t> versions_;  // generated
  std::vector<uint64_t> applied_versions_;

  uint64_t submitted_ = 0;  // records [0, submitted_) handed to the journal
  uint64_t feature_updates_applied_ = 0;
  uint64_t edge_inserts_applied_ = 0;
  uint64_t edge_deletes_applied_ = 0;
};

}  // namespace gids::core

#endif  // GIDS_CORE_MUTATION_STREAM_H_
