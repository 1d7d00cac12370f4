#include "storage/software_cache.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace gids::storage {

uint32_t SoftwareCache::AutoShardCount(uint64_t capacity_lines) {
  uint32_t shards = 1;
  while (shards < 64 && capacity_lines / (shards * 2) >= 256) shards *= 2;
  return shards;
}

namespace {

uint32_t Log2Pow2(uint32_t v) {
  uint32_t log = 0;
  while ((1u << log) < v) ++log;
  return log;
}

}  // namespace

SoftwareCache::SoftwareCache(uint64_t capacity_bytes, uint32_t line_bytes,
                             uint64_t num_pages, uint64_t seed,
                             bool store_payloads, uint32_t num_shards,
                             CachePolicy* policy)
    : store_payloads_(store_payloads),
      line_bytes_(line_bytes),
      slot_(num_pages, kNoSlot),
      future_reuse_(num_pages, 0) {
  GIDS_CHECK(line_bytes > 0);
  if (policy == nullptr) {
    owned_policy_ = std::make_unique<RandomEvictionPolicy>();
    policy_ = owned_policy_.get();
  } else {
    policy_ = policy;
  }
  total_lines_ = capacity_bytes / line_bytes;
  GIDS_CHECK(total_lines_ > 0 && total_lines_ < kNoSlot);

  uint32_t shards = num_shards == 0 ? AutoShardCount(total_lines_)
                                    : num_shards;
  // Round down to a power of two no larger than the line budget so every
  // shard holds at least one line and ShardFor stays a mask.
  while ((shards & (shards - 1)) != 0) shards &= shards - 1;
  while (shards > total_lines_) shards /= 2;
  shards = std::max<uint32_t>(1, shards);
  shard_mask_ = shards - 1;
  shard_shift_ = 64 - Log2Pow2(shards);

  shards_.reserve(shards);
  for (uint32_t k = 0; k < shards; ++k) {
    // Even line split; the first (total % shards) shards take the
    // remainder. Shard 0 keeps the raw seed so a single-shard cache
    // reproduces the pre-sharding eviction sequence exactly.
    uint64_t shard_lines =
        total_lines_ / shards + (k < total_lines_ % shards ? 1 : 0);
    auto sh = std::make_unique<Shard>();
    sh->lines.resize(shard_lines);
    if (store_payloads_) sh->data.resize(shard_lines * line_bytes_);
    sh->free_slots.reserve(shard_lines);
    for (uint32_t s = shard_lines; s-- > 0;) sh->free_slots.push_back(s);
    sh->policy_state = policy_->MakeShardState(
        k, seed + 0x9e3779b97f4a7c15ull * k, shard_lines);
    shards_.push_back(std::move(sh));
  }
}

void SoftwareCache::EnableIntegrity(const PageChecksummer* checksummer,
                                    bool verify_fill, bool verify_hit) {
  checksummer_ = checksummer;
  verify_fill_ = verify_fill;
  verify_hit_ = verify_hit;
}

bool SoftwareCache::LineCorruptLocked(const Shard& sh, uint32_t slot) const {
  const Line& line = sh.lines[slot];
  if (line.corrupt_hint) return true;
  if (store_payloads_ && line.has_crc && checksummer_ != nullptr) {
    const std::byte* data = sh.data.data() + size_t{slot} * line_bytes_;
    return checksummer_->Checksum(line.page, data, line_bytes_) != line.crc;
  }
  return false;
}

void SoftwareCache::QuarantineLocked(Shard& sh, uint32_t slot) {
  Line& line = sh.lines[slot];
  slot_[line.page] = kNoSlot;
  sh.free_slots.push_back(slot);
  // The page's future_reuse_ entry is deliberately kept: the quarantined
  // access path re-reads from storage and re-inserts, and the re-insert
  // must re-pin the line or window buffering would lose its look-ahead.
  line = Line{};
}

bool SoftwareCache::Invalidate(uint64_t page) {
  Shard& sh = shard_for(page);
  std::lock_guard<std::mutex> lock(sh.mu);
  if (slot_[page] == kNoSlot) return false;
  QuarantineLocked(sh, slot_[page]);
  return true;
}

bool SoftwareCache::Lookup(uint64_t page, std::span<std::byte> out,
                           uint32_t reuses) {
  GIDS_CHECK(out.empty() || (store_payloads_ && out.size() == line_bytes_));
  Shard& sh = shard_for(page);
  std::lock_guard<std::mutex> lock(sh.mu);
  ++sh.stats.lookups;
  uint32_t slot = slot_[page];
  if (slot != kNoSlot && verify_hit_ && LineCorruptLocked(sh, slot)) {
    // Mismatched line: quarantine it and serve the access as a miss; the
    // caller re-reads from storage (which repairs) and re-inserts.
    ++sh.stats.quarantines;
    QuarantineLocked(sh, slot);
    slot = kNoSlot;
  }
  const bool hit = slot != kNoSlot;
  ++(hit ? sh.stats.hits : sh.stats.misses);
  // A miss still consumes its registered future reuses: the window counted
  // this very access when the mini-batch entered the look-ahead window.
  // Without this, miss-path counters never drain and lines pin forever.
  ConsumeReuseLocked(sh, page, slot, reuses);
  policy_->OnAccess(page, reuses, hit);
  if (hit && !out.empty()) {
    std::memcpy(out.data(), sh.data.data() + size_t{slot} * line_bytes_,
                line_bytes_);
  }
  return hit;
}

SoftwareCache::ScrubResult SoftwareCache::ScrubShard(uint32_t shard,
                                                     uint64_t max_lines) {
  ScrubResult r;
  if (shard >= shards_.size() || max_lines == 0) return r;
  Shard& sh = *shards_[shard];
  std::lock_guard<std::mutex> lock(sh.mu);
  const size_t n = sh.lines.size();
  // At most one full cycle per call: the sweep resumes where the last one
  // stopped, so successive quotas cover the whole shard.
  for (size_t step = 0; step < n && r.scanned < max_lines; ++step) {
    size_t slot = sh.scrub_cursor;
    sh.scrub_cursor = (sh.scrub_cursor + 1) % n;
    if (sh.lines[slot].state == LineState::kEmpty) continue;
    ++r.scanned;
    if (LineCorruptLocked(sh, slot)) {
      ++r.errors;
      QuarantineLocked(sh, slot);
    }
  }
  sh.stats.scrubbed_lines += r.scanned;
  sh.stats.scrub_errors += r.errors;
  return r;
}

bool SoftwareCache::Contains(uint64_t page) const {
  const Shard& sh = shard_for(page);
  std::lock_guard<std::mutex> lock(sh.mu);
  return slot_[page] != kNoSlot;
}

void SoftwareCache::ConsumeReuseLocked(Shard& sh, uint64_t page,
                                       uint32_t slot, uint32_t count) {
  uint32_t& reuse = future_reuse_[page];
  if (reuse == 0) return;
  reuse -= std::min(reuse, count);
  if (reuse == 0 && slot != kNoSlot &&
      sh.lines[slot].state == LineState::kUse) {
    sh.lines[slot].state = LineState::kSafeToEvict;
  }
}

uint32_t SoftwareCache::AcquireSlotLocked(Shard& sh, uint64_t page) {
  uint32_t slot;
  if (!sh.free_slots.empty()) {
    slot = sh.free_slots.back();
    sh.free_slots.pop_back();
  } else {
    // Full shard: the plugged policy picks the victim (or refuses the
    // admission). The host keeps the historical probe/bypass/eviction
    // books so CacheStats means the same thing under every policy.
    struct View final : CachePolicy::ShardLineView {
      const std::vector<Line>* lines;
      size_t num_lines() const override { return lines->size(); }
      bool evictable(size_t s) const override {
        return (*lines)[s].state == LineState::kSafeToEvict;
      }
      uint64_t page(size_t s) const override { return (*lines)[s].page; }
    };
    View view;
    view.lines = &sh.lines;
    uint64_t skips = 0;
    size_t victim = policy_->SelectVictim(*sh.policy_state, view, page,
                                          kMaxProbes, &skips);
    sh.stats.pinned_probe_skips += skips;
    if (victim == CachePolicy::kNoVictim) {
      ++sh.stats.bypasses;
      return kNoSlot;
    }
    slot = static_cast<uint32_t>(victim);
    uint64_t victim_page = sh.lines[slot].page;
    slot_[victim_page] = kNoSlot;
    ++sh.stats.evictions;
    policy_->OnEvict(victim_page);
  }
  sh.lines[slot].page = page;
  sh.lines[slot].crc = 0;
  sh.lines[slot].has_crc = false;
  sh.lines[slot].corrupt_hint = false;
  sh.lines[slot].state =
      future_reuse_[page] > 0 ? LineState::kUse : LineState::kSafeToEvict;
  slot_[page] = slot;
  ++sh.stats.insertions;
  policy_->OnInsert(page);
  return slot;
}

bool SoftwareCache::Insert(uint64_t page, std::span<const std::byte> payload,
                           std::optional<uint32_t> crc, bool corrupt_hint) {
  GIDS_CHECK(payload.empty() ||
             (store_payloads_ && payload.size() == line_bytes_));
  Shard& sh = shard_for(page);
  std::lock_guard<std::mutex> lock(sh.mu);
  if (verify_fill_) {
    bool bad = corrupt_hint;
    if (!bad && !payload.empty() && crc.has_value() &&
        checksummer_ != nullptr) {
      bad = checksummer_->Checksum(page, payload.data(), payload.size()) !=
            *crc;
    }
    if (bad) {
      ++sh.stats.fill_rejects;
      return false;
    }
  }
  uint32_t slot = slot_[page];
  if (slot == kNoSlot) {
    slot = AcquireSlotLocked(sh, page);
    if (slot == kNoSlot) return false;
  }
  Line& line = sh.lines[slot];
  if (!payload.empty()) {
    // Only a payload carries a checksum: a counting-mode insert leaves a
    // resident line's sum as it is (AcquireSlotLocked clears new lines).
    std::memcpy(sh.data.data() + size_t{slot} * line_bytes_, payload.data(),
                line_bytes_);
    line.crc = crc.value_or(0);
    line.has_crc = crc.has_value();
  }
  line.corrupt_hint = corrupt_hint;
  return true;
}

void SoftwareCache::AddFutureReuse(uint64_t page, uint32_t count) {
  if (count == 0) return;
  Shard& sh = shard_for(page);
  std::lock_guard<std::mutex> lock(sh.mu);
  future_reuse_[page] += count;
  if (slot_[page] != kNoSlot) sh.lines[slot_[page]].state = LineState::kUse;
  // The registration stream doubles as the policy's look-ahead feed: one
  // entry per registered future access, in registration order (Belady
  // builds its next-use queues from exactly this sequence).
  for (uint32_t i = 0; i < count; ++i) policy_->IngestFutureAccess(page);
}

void SoftwareCache::ClearFutureReuse() {
  // Every shard lock at once: the reuse table interleaves all shards'
  // pages. Other paths hold one shard lock at a time, so taking them in
  // index order cannot deadlock.
  std::vector<std::unique_lock<std::mutex>> locks;
  locks.reserve(shards_.size());
  for (auto& sh : shards_) locks.emplace_back(sh->mu);
  std::fill(future_reuse_.begin(), future_reuse_.end(), 0);
  for (auto& sh : shards_) {
    for (auto& line : sh->lines) {
      if (line.state == LineState::kUse) line.state = LineState::kSafeToEvict;
    }
  }
}

uint64_t SoftwareCache::resident_lines() const {
  uint64_t n = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    n += sh->lines.size() - sh->free_slots.size();
  }
  return n;
}

uint64_t SoftwareCache::pinned_lines() const {
  uint64_t n = 0;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    for (const auto& line : sh->lines) {
      if (line.state == LineState::kUse) ++n;
    }
  }
  return n;
}

uint32_t SoftwareCache::FutureReuseCount(uint64_t page) const {
  const Shard& sh = shard_for(page);
  std::lock_guard<std::mutex> lock(sh.mu);
  return future_reuse_[page];
}

CacheStats SoftwareCache::stats() const {
  CacheStats merged;
  for (const auto& sh : shards_) {
    std::lock_guard<std::mutex> lock(sh->mu);
    merged.lookups += sh->stats.lookups;
    merged.hits += sh->stats.hits;
    merged.misses += sh->stats.misses;
    merged.insertions += sh->stats.insertions;
    merged.evictions += sh->stats.evictions;
    merged.pinned_probe_skips += sh->stats.pinned_probe_skips;
    merged.bypasses += sh->stats.bypasses;
    merged.quarantines += sh->stats.quarantines;
    merged.fill_rejects += sh->stats.fill_rejects;
    merged.scrubbed_lines += sh->stats.scrubbed_lines;
    merged.scrub_errors += sh->stats.scrub_errors;
  }
  return merged;
}

void SoftwareCache::BindMetrics(obs::MetricRegistry* registry,
                                const obs::Labels& labels) const {
  GIDS_CHECK(registry != nullptr);
  using obs::MetricType;
  auto counter = [&](const char* name, uint64_t CacheStats::* field) {
    registry->RegisterCallback(
        name, labels, MetricType::kCounter,
        [this, field] { return static_cast<double>(stats().*field); });
  };
  counter("gids_cache_lookups_total", &CacheStats::lookups);
  counter("gids_cache_hits_total", &CacheStats::hits);
  counter("gids_cache_misses_total", &CacheStats::misses);
  counter("gids_cache_insertions_total", &CacheStats::insertions);
  counter("gids_cache_evictions_total", &CacheStats::evictions);
  counter("gids_cache_pinned_probe_skips_total",
          &CacheStats::pinned_probe_skips);
  counter("gids_cache_bypasses_total", &CacheStats::bypasses);
  counter("gids_cache_quarantines_total", &CacheStats::quarantines);
  counter("gids_cache_fill_rejects_total", &CacheStats::fill_rejects);
  counter("gids_cache_scrubbed_lines_total", &CacheStats::scrubbed_lines);
  counter("gids_cache_scrub_errors_total", &CacheStats::scrub_errors);
  registry->RegisterCallback("gids_cache_hit_ratio", labels,
                             MetricType::kGauge,
                             [this] { return stats().HitRatio(); });
  registry->RegisterCallback(
      "gids_cache_resident_lines", labels, MetricType::kGauge,
      [this] { return static_cast<double>(resident_lines()); });
  registry->RegisterCallback(
      "gids_cache_pinned_lines", labels, MetricType::kGauge,
      [this] { return static_cast<double>(pinned_lines()); });
  registry->RegisterCallback(
      "gids_cache_num_shards", labels, MetricType::kGauge,
      [this] { return static_cast<double>(num_shards()); });
  registry->RegisterCallback(
      "gids_cache_capacity_lines", labels, MetricType::kGauge,
      [this] { return static_cast<double>(capacity_lines()); });
}

}  // namespace gids::storage
