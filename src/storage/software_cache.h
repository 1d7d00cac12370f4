#ifndef GIDS_STORAGE_SOFTWARE_CACHE_H_
#define GIDS_STORAGE_SOFTWARE_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "common/status.h"
#include "obs/metric_registry.h"
#include "storage/cache_policy.h"
#include "storage/page_integrity.h"

namespace gids::storage {

/// Per-line state of the BaM application-defined software cache (§3.4).
/// "USE" lines hold feature vectors with a positive future-reuse counter
/// (window buffering) and are skipped by eviction; "Safe to Evict" lines
/// are fair game for the random eviction policy.
enum class LineState : uint8_t {
  kEmpty = 0,
  kSafeToEvict = 1,
  kUse = 2,
};

struct CacheStats {
  uint64_t lookups = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;
  uint64_t pinned_probe_skips = 0;  // eviction probe landed on a USE line
  uint64_t bypasses = 0;            // no evictable line found; not cached
  uint64_t quarantines = 0;     // lines evicted on checksum mismatch at hit
  uint64_t fill_rejects = 0;    // corrupt payloads refused at insert
  uint64_t scrubbed_lines = 0;  // resident lines scanned by the scrubber
  uint64_t scrub_errors = 0;    // scrubber-found mismatches (quarantined)

  bool operator==(const CacheStats&) const = default;

  double HitRatio() const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(hits) /
                              static_cast<double>(lookups);
  }
};

/// BaM's application-defined GPU software cache with a customizable
/// eviction policy — the substrate the GIDS window-buffering technique
/// plugs into.
///
/// The cache is fully associative over fixed-size lines (4 KiB storage
/// pages by default). The default eviction policy is BaM's random
/// eviction: a bounded number of random probes looks for a line in the
/// "Safe to Evict" state; if all probes land on pinned (USE) lines the
/// insertion is bypassed (the paper's cache-line contention case, §3.4).
///
/// Window buffering drives the USE/Safe-to-Evict transitions through
/// AddFutureReuse (look-ahead registration, Fig. 6 steps 3-5) and the
/// consume-on-access decrement inside Lookup (Fig. 6's counter drain).
///
/// Line payloads are stored so gathers served from the cache are
/// byte-checkable against the backing device.
///
/// Concurrency: the cache is lock-striped into power-of-two shards keyed
/// by page id (multiplicative hash of the page number), each shard owning
/// its own lines, stats, and eviction RNG. The per-page slot index and
/// future-reuse counters are cache-wide dense tables; each entry belongs
/// to its page's shard and is touched only under that shard's mutex.
/// Operations on different shards never contend; operations on the same
/// shard serialize under the shard mutex. The cache's observable state
/// (hits, evictions, pins) is therefore a pure function of the *per-shard
/// access sequences*: callers that want results independent of their
/// thread count must present each shard's accesses in a canonical order
/// (FeatureGatherer's one-pass gather presents them in node order). Small
/// caches (under 512 lines) auto-collapse to a single shard, which
/// reproduces the pre-sharding serial cache bit for bit.
class SoftwareCache {
 public:
  /// `num_pages` bounds the page ids the cache accepts: per-page state
  /// lives in dense tables indexed by page id, so every entry point CHECKs
  /// `page < num_pages`.
  ///
  /// `store_payloads` = false builds a metadata-only cache (same hits,
  /// misses, eviction and pinning behaviour, no line payload memory); used
  /// by the counting-mode gather path that drives the large-scale timing
  /// benchmarks. Lookup/Insert with an empty span work in both modes; a
  /// payload span requires payload mode.
  ///
  /// `num_shards` = 0 picks the shard count automatically (power of two,
  /// at least 256 lines per shard, at most 64 shards). Explicit values
  /// are clamped to a power of two no larger than the line capacity.
  ///
  /// `policy` plugs the replacement/admission strategy (CACHING.md). The
  /// cache is a policy *host*: it owns lines, pins, stats, and integrity
  /// state, and delegates only the victim/admission decision plus access
  /// and look-ahead notifications. nullptr installs an internally owned
  /// RandomEvictionPolicy, which reproduces the pre-framework eviction
  /// stream bit for bit. External policies must outlive the cache and may
  /// be shared across caches (multi-GPU shared-policy mode).
  SoftwareCache(uint64_t capacity_bytes, uint32_t line_bytes,
                uint64_t num_pages, uint64_t seed = 0xcac4e,
                bool store_payloads = true, uint32_t num_shards = 0,
                CachePolicy* policy = nullptr);

  /// Installs the integrity verify points (INTEGRITY.md). Each cache line
  /// carries the write-time checksum its payload arrived with (payload
  /// mode) or a corrupt-hint bit (metadata mode). `verify_fill` rejects
  /// corrupt payloads at Insert; `verify_hit` re-verifies resident lines
  /// on every hit and quarantines mismatches (the hit becomes a miss, so
  /// the caller re-reads from storage and re-inserts). `checksummer` must
  /// outlive the cache and is required for payload-mode verification;
  /// lines inserted without a checksum carry no verifiable sum and are
  /// skipped by payload verification (their corrupt-hint bit is still
  /// honored). Call before use (not thread-safe against concurrent
  /// operations).
  void EnableIntegrity(const PageChecksummer* checksummer, bool verify_fill,
                       bool verify_hit);

  /// Result of one ScrubShard sweep.
  struct ScrubResult {
    uint64_t scanned = 0;  // resident lines checked
    uint64_t errors = 0;   // mismatched lines (quarantined)
  };

  /// Background-scrubber entry point: verifies up to `max_lines` resident
  /// lines of shard `shard`, resuming from a persistent per-shard cursor
  /// so successive sweeps cycle the whole shard. Mismatched lines are
  /// quarantined exactly like a verify_hit mismatch (works even when
  /// verify_hit itself is off). Takes the shard lock; safe to run
  /// concurrently with other shards' traffic.
  ScrubResult ScrubShard(uint32_t shard, uint64_t max_lines);

  uint64_t capacity_lines() const { return total_lines_; }
  uint32_t line_bytes() const { return line_bytes_; }
  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }
  uint64_t resident_lines() const;

  /// Shard index that owns `page`. Stable for the cache's lifetime.
  uint32_t ShardFor(uint64_t page) const {
    // Fibonacci hashing: top bits of the multiplied key are well mixed
    // even for sequential page ids.
    return shard_mask_ == 0
               ? 0
               : static_cast<uint32_t>((page * 0x9e3779b97f4a7c15ull) >>
                                       shard_shift_) &
                     shard_mask_;
  }

  /// Merged view of all shard stats. Takes every shard lock in turn;
  /// intended for quiescent points (end of iteration, test assertions),
  /// not hot paths. Safe to call from several threads at once.
  CacheStats stats() const;

  /// Exposes the cache through `registry` (pull-style: every CacheStats
  /// field plus resident/pinned-line gauges is read — and merged across
  /// shards — at snapshot time, so the hot paths keep driving only the
  /// shard-local structs). `labels` tags the series, e.g.
  /// {{"loader", "GIDS"}}. The registry must outlive the cache's last
  /// snapshot.
  void BindMetrics(obs::MetricRegistry* registry,
                   const obs::Labels& labels) const;

  /// Looks up `page`: the one read path of both cache modes. On a hit,
  /// copies the line's payload into `out` under the shard lock and returns
  /// true; an empty `out` is counting mode (same decisions, no copy). A
  /// non-empty `out` must be line-sized and needs a payload cache.
  ///
  /// Hit or miss, the access consumes up to `reuses` registered future
  /// reuses; when the counter drains to zero the line transitions back to
  /// Safe to Evict. `reuses` is the number of window-buffer registrations
  /// this access stands for: a page-coalesced gather services one access
  /// on behalf of `reuses` registered (node, page) requests and must drain
  /// all of them at once, or lines would stay pinned forever (see
  /// DESIGN.md §10). The default of 1 is the uncoalesced access.
  bool Lookup(uint64_t page, std::span<std::byte> out = {},
              uint32_t reuses = 1);

  /// True if `page` is resident (no stats or reuse-counter side effects).
  bool Contains(uint64_t page) const;

  bool store_payloads() const { return store_payloads_; }

  /// Inserts `page`. If the shard is full, random probing evicts a
  /// Safe-to-Evict victim; after kMaxProbes pinned probes the insertion
  /// is bypassed. Returns true if the page is resident after the call.
  ///
  /// A line-sized `payload` (payload cache only) is copied into the line
  /// with its write-time checksum `crc` (StorageArray's ReadOutcome) for
  /// hit-time and scrub verification. An empty `payload` is counting mode:
  /// the same placement decisions, and a resident line keeps its bytes and
  /// checksum. `corrupt_hint` tags the (possibly absent) payload as served
  /// silently corrupt, so counting-mode verify points reject and
  /// quarantine exactly where a byte-moving run's CRC compares would.
  bool Insert(uint64_t page, std::span<const std::byte> payload = {},
              std::optional<uint32_t> crc = std::nullopt,
              bool corrupt_hint = false);

  /// Drops `page`'s resident line (if any) without stats side effects:
  /// the journal applier calls this for every storage page it rewrites,
  /// so the next access re-reads the mutated bytes instead of serving the
  /// stale cached copy. The page's future-reuse entry survives (like a
  /// quarantine), so the re-read re-pins the line and window buffering
  /// keeps its look-ahead guarantees. Returns true if a line was dropped.
  bool Invalidate(uint64_t page);

  /// Window buffering: registers `count` future reuses of `page`. Applies
  /// to the resident line immediately, or is remembered and applied if the
  /// page is inserted while reuses remain outstanding. Also forwards
  /// `count` look-ahead entries to the policy (CachePolicy::
  /// IngestFutureAccess), so Belady-style policies see the window.
  void AddFutureReuse(uint64_t page, uint32_t count);

  /// Clears all future-reuse counters (dropping all pins).
  void ClearFutureReuse();

  /// Number of lines currently pinned in the USE state.
  uint64_t pinned_lines() const;

  /// Current future-reuse counter for a page (0 if none).
  uint32_t FutureReuseCount(uint64_t page) const;

  /// The plugged replacement/admission policy (never null).
  CachePolicy* policy() const { return policy_; }

  /// The automatic shard-count policy: double the shard count while every
  /// shard would keep at least 256 lines, clamped to [1, 64].
  static uint32_t AutoShardCount(uint64_t capacity_lines);

 private:
  struct Line {
    uint64_t page = 0;
    LineState state = LineState::kEmpty;
    /// Write-time checksum of the payload (valid when has_crc); hit-time
    /// and scrub verification recompute the payload sum against it.
    uint32_t crc = 0;
    bool has_crc = false;
    /// Counting-mode taint: the payload this line stands for was served
    /// silently corrupt (see Insert's `corrupt_hint`).
    bool corrupt_hint = false;
  };

  /// One lock stripe. Each shard is an independent mini-cache over a
  /// contiguous slice of the line budget with its own policy shard state
  /// (e.g. the eviction RNG), so its decisions depend only on the
  /// sequence of operations applied to it — never on sibling shards or on
  /// which thread issued the call. `mu` also guards the slot_ and
  /// future_reuse_ entries of every page the shard owns.
  struct Shard {
    mutable std::mutex mu;
    std::vector<Line> lines;
    std::vector<std::byte> data;  // slot payloads
    std::vector<uint32_t> free_slots;
    CacheStats stats;
    std::unique_ptr<CachePolicy::ShardState> policy_state;
    size_t scrub_cursor = 0;  // next line ScrubShard resumes from
  };

  static constexpr uint32_t kNoSlot = UINT32_MAX;
  /// Victim probes an insertion makes before it bypasses the cache.
  static constexpr int kMaxProbes = 32;

  /// The shard owning `page`, after the range check every entry point
  /// makes: pages come from FeatureStore::PagesFor, so an out-of-range
  /// page is a broken invariant.
  Shard& shard_for(uint64_t page) {
    GIDS_CHECK(page < slot_.size());
    return *shards_[ShardFor(page)];
  }
  const Shard& shard_for(uint64_t page) const {
    GIDS_CHECK(page < slot_.size());
    return *shards_[ShardFor(page)];
  }

  /// Decrements `page`'s future-reuse counter (if any) by up to `count`;
  /// unpins the line at `slot` when the counter drains. Pass kNoSlot for
  /// non-resident pages. Caller holds sh.mu.
  void ConsumeReuseLocked(Shard& sh, uint64_t page, uint32_t slot,
                          uint32_t count);
  /// Shared placement logic; returns the slot or kNoSlot on bypass.
  /// Caller holds sh.mu.
  uint32_t AcquireSlotLocked(Shard& sh, uint64_t page);
  /// Removes the mismatched line at `slot` from the shard: slot entry
  /// cleared, slot freed, line emptied. The page's future-reuse entry (if
  /// any) survives, so a repairing re-insert re-pins the line and window
  /// buffering keeps its look-ahead guarantees. Caller holds sh.mu.
  void QuarantineLocked(Shard& sh, uint32_t slot);
  /// True when the resident line at `slot` fails its integrity check
  /// (payload CRC mismatch, or a counting-mode corrupt hint). Caller
  /// holds sh.mu.
  bool LineCorruptLocked(const Shard& sh, uint32_t slot) const;

  bool store_payloads_;
  uint32_t line_bytes_;
  std::unique_ptr<CachePolicy> owned_policy_;  // set when policy arg is null
  CachePolicy* policy_ = nullptr;              // never null after the ctor
  const PageChecksummer* checksummer_ = nullptr;  // null = no payload verify
  bool verify_fill_ = false;
  bool verify_hit_ = false;
  uint64_t total_lines_ = 0;
  uint32_t shard_mask_ = 0;   // num_shards - 1
  uint32_t shard_shift_ = 64; // 64 - log2(num_shards)
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Per-page tables (page -> slot in its shard or kNoSlot; page ->
  /// pending future reuses), 8 B per page. Entries of one page are read
  /// and written only under the lock of ShardFor(page).
  std::vector<uint32_t> slot_;
  std::vector<uint32_t> future_reuse_;
};

}  // namespace gids::storage

#endif  // GIDS_STORAGE_SOFTWARE_CACHE_H_
