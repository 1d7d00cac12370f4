#ifndef GIDS_STORAGE_CACHE_POLICY_H_
#define GIDS_STORAGE_CACHE_POLICY_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "graph/feature_store.h"
#include "graph/types.h"
#include "obs/metric_registry.h"

namespace gids::storage {

/// Which replacement/admission policy drives the software cache and the
/// static hot-node residency. See CACHING.md for the canonical semantics,
/// determinism guarantees, and a selection decision table.
enum class CachePolicyKind : uint8_t {
  /// BaM §3.4: bounded random probing for a Safe-to-Evict victim, no
  /// admission control, no static residency ranking. The historical
  /// SoftwareCache behavior — every default config maps here or below.
  kRandom = 0,
  /// kRandom plus window-buffer future-reuse pinning (GIDS Fig. 6). The
  /// pin bookkeeping itself lives in the host (WindowBuffer +
  /// SoftwareCache USE states); the policy only names the stack.
  kWindow,
  /// kWindow plus a static CPU hot buffer ranked by a structural metric
  /// (weighted reverse PageRank by default, §3.3). The repo's default.
  kPageRankHot,
  /// Ginex-style Belady: evict the resident page whose next registered
  /// use is farthest in the future (absent = infinitely far); refuse to
  /// admit a page used later than every resident candidate. Needs the
  /// window look-ahead feed (IngestFutureAccess) to see the future.
  kGinexBelady,
  /// FGNN-style pre-sampling: a bounded presample pass counts node
  /// access frequencies, the ranking seeds the static buffer AND
  /// per-page admission priorities (evict the coldest probed victim,
  /// refuse admission when the incoming page is colder still), and live
  /// re-ranking tracks drift.
  kPresample,
};

/// Stable lower-case name ("random", "window", "pagerank", "belady",
/// "presample") — the `gids_cli --cache-policy` vocabulary.
const char* CachePolicyKindName(CachePolicyKind kind);

/// Parses CachePolicyKindName() strings. Returns false on unknown names.
bool ParseCachePolicyKind(std::string_view name, CachePolicyKind* out);

/// Snapshot of policy-side decision counters (exported as
/// gids_cache_policy_*; complements CacheStats, which books the host-side
/// lookup/hit/miss/eviction outcomes).
struct CachePolicyStats {
  uint64_t victim_requests = 0;  ///< SelectVictim calls
  uint64_t victims = 0;          ///< calls that returned a victim slot
  uint64_t probe_skips = 0;      ///< probed-but-pinned lines across calls
  uint64_t bypasses = 0;         ///< no evictable candidate within budget
  uint64_t admit_rejects = 0;    ///< admission control refused the insert
  uint64_t rank_ingests = 0;     ///< rank/frequency tables ingested
  uint64_t rerank_rounds = 0;    ///< ingests after the first (live drift)
  uint64_t ranked_nodes = 0;     ///< nodes with a nonzero rank signal
  uint64_t ranked_pages = 0;     ///< pages with a nonzero priority
  uint64_t future_ingests = 0;   ///< look-ahead registrations ingested
};

/// Replacement/admission strategy plugged into SoftwareCache (victim
/// choice) and read by GidsLoader (static-residency ranking). One policy
/// instance serves every shard of one cache — per-shard mutable state
/// lives in ShardState objects the host stores under its shard locks, so
/// SelectVictim needs no internal locking for the common policies and the
/// per-shard decision streams stay bit-identical at any host_threads /
/// cache_shards combination (the host replays canonical per-shard access
/// sequences; see DESIGN.md §7).
///
/// Policies with cache-global state (Belady future maps, presample
/// priority tables) guard it internally; their per-page decisions are
/// functions of per-page state only, so cross-shard interleaving does not
/// perturb results.
class CachePolicy {
 public:
  /// SelectVictim result meaning "do not insert" (no candidate within the
  /// probe budget, or admission control rejected the incoming page).
  static constexpr size_t kNoVictim = static_cast<size_t>(-1);

  /// Opaque per-shard mutable state (e.g. the probing RNG). Created by
  /// MakeShardState, owned by the host, and always accessed under the
  /// host's shard lock.
  class ShardState {
   public:
    virtual ~ShardState() = default;
  };

  /// Host-provided read view of one shard's lines during a victim choice.
  /// `evictable` is true only for Safe-to-Evict lines (empty and USE/
  /// pinned lines are not candidates); `page` is only meaningful for
  /// non-empty slots.
  class ShardLineView {
   public:
    virtual size_t num_lines() const = 0;
    virtual bool evictable(size_t slot) const = 0;
    virtual uint64_t page(size_t slot) const = 0;

   protected:
    ~ShardLineView() = default;
  };

  virtual ~CachePolicy() = default;

  virtual CachePolicyKind kind() const = 0;
  const char* name() const { return CachePolicyKindName(kind()); }

  /// Creates the per-shard state. `shard_seed` is already mixed per shard
  /// by the host (seed + golden-ratio * shard index) so the default
  /// policy's probing stream reproduces the historical per-shard Rng
  /// exactly.
  virtual std::unique_ptr<ShardState> MakeShardState(uint32_t shard_index,
                                                     uint64_t shard_seed,
                                                     uint64_t num_lines);

  /// Picks the eviction victim for `incoming_page` in a full shard, or
  /// kNoVictim to bypass the insertion. Called under the shard lock.
  /// Implementations must add one to `*probe_skips` per probed line that
  /// was not evictable (the host folds the total into
  /// CacheStats::pinned_probe_skips, preserving the historical books).
  virtual size_t SelectVictim(ShardState& state, const ShardLineView& lines,
                              uint64_t incoming_page, int max_probes,
                              uint64_t* probe_skips) = 0;

  /// Access notification (hit or miss), called under the shard lock once
  /// per SoftwareCache::Lookup with the coalesced-group multiplicity
  /// `reuses` (a coalesced group touches each distinct page once but
  /// drains `reuses` pins). Belady drains its future queue here.
  virtual void OnAccess(uint64_t page, uint32_t reuses, bool hit);

  /// Placement notifications, called under the shard lock.
  virtual void OnInsert(uint64_t page);
  virtual void OnEvict(uint64_t page);

  /// Look-ahead feed: WindowBuffer::Register reports every page of the
  /// upcoming window in registration order (serial, single-flight — see
  /// DESIGN.md §7 — so the sequence is deterministic). Belady builds its
  /// future-use queues from this; other policies ignore it.
  virtual void IngestFutureAccess(uint64_t page);

  /// Frequency feed: per-node access counts (index = NodeId) from a
  /// presample pass or live gather counters. The presample policy derives
  /// its node ranking (count desc, id asc) and per-page priorities
  /// (sum of member-node counts via layout.PagesFor). Repeat calls
  /// re-rank (tables swap atomically; in-flight decisions use the prior
  /// snapshot).
  virtual void IngestNodeFrequencies(std::span<const uint64_t> node_counts,
                                     const graph::FeatureStore& layout);

  /// Structural-rank feed: a hottest-first node order (e.g. weighted
  /// reverse PageRank) pushed by the host for policies whose residency
  /// ranking is computed outside the policy.
  virtual void IngestHotRanking(std::vector<graph::NodeId> hottest_first);

  /// True when the policy carries a node ranking the host should use to
  /// seed the static CPU buffer (instead of recomputing a structural
  /// metric).
  virtual bool ProvidesHotRanking() const;

  /// Copy of the current hottest-first ranking; empty when none.
  virtual std::vector<graph::NodeId> HotNodeRanking() const;

  CachePolicyStats stats() const;

  /// Exports gids_cache_policy_* counters/gauges. Callback (pull) metrics;
  /// freeze with MetricRegistry::UnbindAll before destroying the policy
  /// (GidsLoader's destructor already does).
  void BindMetrics(obs::MetricRegistry* registry,
                   const obs::Labels& labels) const;

 protected:
  /// Decision counters, updated by implementations (relaxed atomics: the
  /// counters are monotonic tallies, never synchronization).
  struct AtomicStats {
    std::atomic<uint64_t> victim_requests{0};
    std::atomic<uint64_t> victims{0};
    std::atomic<uint64_t> probe_skips{0};
    std::atomic<uint64_t> bypasses{0};
    std::atomic<uint64_t> admit_rejects{0};
    std::atomic<uint64_t> rank_ingests{0};
    std::atomic<uint64_t> rerank_rounds{0};
    std::atomic<uint64_t> ranked_nodes{0};
    std::atomic<uint64_t> ranked_pages{0};
    std::atomic<uint64_t> future_ingests{0};
  };
  AtomicStats stats_;
};

/// Random eviction (kRandom / kWindow / kPageRankHot): bounded random
/// probing for a Safe-to-Evict line on a per-shard xoshiro256** stream —
/// bit-identical to the pre-framework SoftwareCache eviction loop. For
/// kPageRankHot the host ingests the structural ranking via
/// IngestHotRanking and reads it back when pinning the CPU buffer; victim
/// selection is unchanged.
class RandomEvictionPolicy : public CachePolicy {
 public:
  explicit RandomEvictionPolicy(CachePolicyKind kind = CachePolicyKind::kRandom);

  CachePolicyKind kind() const override { return kind_; }
  std::unique_ptr<ShardState> MakeShardState(uint32_t shard_index,
                                             uint64_t shard_seed,
                                             uint64_t num_lines) override;
  size_t SelectVictim(ShardState& state, const ShardLineView& lines,
                      uint64_t incoming_page, int max_probes,
                      uint64_t* probe_skips) override;
  void IngestHotRanking(std::vector<graph::NodeId> hottest_first) override;
  bool ProvidesHotRanking() const override;
  std::vector<graph::NodeId> HotNodeRanking() const override;

 private:
  struct RngState final : ShardState {
    Rng rng;
  };
  CachePolicyKind kind_;
  mutable std::mutex rank_mu_;
  std::vector<graph::NodeId> ranking_;
};

/// Ginex-style Belady replacement over the registered look-ahead window:
/// the victim is the Safe-to-Evict line whose next registered use is
/// farthest away (never-registered pages are infinitely far and win;
/// ties break toward the lowest slot, giving a full deterministic order).
/// Admission control refuses pages whose own next use is farther than the
/// best victim's. Scans the whole shard (max_probes is a probing budget
/// and does not apply); probe_skips stays zero — pinned lines are simply
/// not candidates here, which CACHING.md documents.
class GinexBeladyPolicy : public CachePolicy {
 public:
  CachePolicyKind kind() const override {
    return CachePolicyKind::kGinexBelady;
  }
  size_t SelectVictim(ShardState& state, const ShardLineView& lines,
                      uint64_t incoming_page, int max_probes,
                      uint64_t* probe_skips) override;
  void OnAccess(uint64_t page, uint32_t reuses, bool hit) override;
  void IngestFutureAccess(uint64_t page) override;

 private:
  /// Next-use sequence for `page`, or UINT64_MAX when unregistered.
  uint64_t NextUseLocked(uint64_t page) const;

  mutable std::mutex mu_;
  uint64_t next_seq_ = 0;
  std::unordered_map<uint64_t, std::deque<uint64_t>> future_;
};

/// FGNN-style pre-sampling policy: IngestNodeFrequencies installs a node
/// ranking (count desc, id asc over all nodes — zero-count nodes rank by
/// ascending id so the static-buffer budget always fills) plus per-page
/// priorities (sum of member-node counts). Victim choice probes like the
/// random policy but keeps the lowest-priority evictable candidate seen
/// within the budget (early-exit on priority zero); admission is refused
/// when the incoming page's priority is strictly below the chosen
/// victim's. Re-ingestion swaps the tables atomically for live re-ranking.
class PresamplePolicy : public CachePolicy {
 public:
  CachePolicyKind kind() const override { return CachePolicyKind::kPresample; }
  std::unique_ptr<ShardState> MakeShardState(uint32_t shard_index,
                                             uint64_t shard_seed,
                                             uint64_t num_lines) override;
  size_t SelectVictim(ShardState& state, const ShardLineView& lines,
                      uint64_t incoming_page, int max_probes,
                      uint64_t* probe_skips) override;
  void IngestNodeFrequencies(std::span<const uint64_t> node_counts,
                             const graph::FeatureStore& layout) override;
  bool ProvidesHotRanking() const override;
  std::vector<graph::NodeId> HotNodeRanking() const override;

  /// Priority of `page` under the current table (0 when unranked) —
  /// exposed for tests and the ablation bench.
  uint64_t PagePriority(uint64_t page) const;

 private:
  struct RngState final : ShardState {
    Rng rng;
  };

  mutable std::mutex rank_mu_;
  std::shared_ptr<const std::vector<uint64_t>> page_priority_;
  std::vector<graph::NodeId> ranking_;
};

/// Factory for `gids_cli --cache-policy` / GidsOptions::cache_policy.
std::unique_ptr<CachePolicy> MakeCachePolicy(CachePolicyKind kind);

}  // namespace gids::storage

#endif  // GIDS_STORAGE_CACHE_POLICY_H_
