#include "storage/cache_policy.h"

#include <algorithm>
#include <utility>

#include "common/status.h"

namespace gids::storage {
namespace {

struct KindName {
  CachePolicyKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {CachePolicyKind::kRandom, "random"},
    {CachePolicyKind::kGinexBelady, "belady"},
    {CachePolicyKind::kPresample, "presample"},
};

}  // namespace

const char* CachePolicyKindName(CachePolicyKind kind) {
  for (const KindName& kn : kKindNames) {
    if (kn.kind == kind) return kn.name;
  }
  return "unknown";
}

bool ParseCachePolicyKind(std::string_view name, CachePolicyKind* out) {
  for (const KindName& kn : kKindNames) {
    if (name == kn.name) {
      *out = kn.kind;
      return true;
    }
  }
  return false;
}

std::unique_ptr<CachePolicy::ShardState> CachePolicy::MakeShardState(
    uint32_t /*shard_index*/, uint64_t /*shard_seed*/, uint64_t /*num_lines*/) {
  return std::make_unique<ShardState>();
}

void CachePolicy::OnAccess(uint64_t /*page*/, uint32_t /*reuses*/,
                           bool /*hit*/) {}
void CachePolicy::OnInsert(uint64_t /*page*/) {}
void CachePolicy::OnEvict(uint64_t /*page*/) {}
void CachePolicy::IngestFutureAccess(uint64_t /*page*/) {}
void CachePolicy::IngestNodeFrequencies(
    std::span<const uint64_t> /*node_counts*/,
    const graph::FeatureStore& /*layout*/) {}
bool CachePolicy::ProvidesHotRanking() const { return false; }
std::vector<graph::NodeId> CachePolicy::HotNodeRanking() const { return {}; }

CachePolicyStats CachePolicy::stats() const {
  CachePolicyStats out;
  out.victim_requests = stats_.victim_requests.load(std::memory_order_relaxed);
  out.victims = stats_.victims.load(std::memory_order_relaxed);
  out.probe_skips = stats_.probe_skips.load(std::memory_order_relaxed);
  out.bypasses = stats_.bypasses.load(std::memory_order_relaxed);
  out.admit_rejects = stats_.admit_rejects.load(std::memory_order_relaxed);
  out.rank_ingests = stats_.rank_ingests.load(std::memory_order_relaxed);
  out.rerank_rounds = stats_.rerank_rounds.load(std::memory_order_relaxed);
  out.ranked_nodes = stats_.ranked_nodes.load(std::memory_order_relaxed);
  out.ranked_pages = stats_.ranked_pages.load(std::memory_order_relaxed);
  out.future_ingests = stats_.future_ingests.load(std::memory_order_relaxed);
  return out;
}

void CachePolicy::BindMetrics(obs::MetricRegistry* registry,
                              const obs::Labels& labels) const {
  GIDS_CHECK(registry != nullptr);
  using obs::MetricType;
  auto counter = [&](const char* name, uint64_t CachePolicyStats::* field) {
    registry->RegisterCallback(
        name, labels, MetricType::kCounter,
        [this, field] { return static_cast<double>(stats().*field); });
  };
  counter("gids_cache_policy_victim_requests_total",
          &CachePolicyStats::victim_requests);
  counter("gids_cache_policy_victims_total", &CachePolicyStats::victims);
  counter("gids_cache_policy_probe_skips_total",
          &CachePolicyStats::probe_skips);
  counter("gids_cache_policy_bypasses_total", &CachePolicyStats::bypasses);
  counter("gids_cache_policy_admit_rejects_total",
          &CachePolicyStats::admit_rejects);
  counter("gids_cache_policy_rank_ingests_total",
          &CachePolicyStats::rank_ingests);
  counter("gids_cache_policy_rerank_rounds_total",
          &CachePolicyStats::rerank_rounds);
  counter("gids_cache_policy_future_ingests_total",
          &CachePolicyStats::future_ingests);
  registry->RegisterCallback(
      "gids_cache_policy_ranked_nodes", labels, MetricType::kGauge,
      [this] { return static_cast<double>(stats().ranked_nodes); });
  registry->RegisterCallback(
      "gids_cache_policy_ranked_pages", labels, MetricType::kGauge,
      [this] { return static_cast<double>(stats().ranked_pages); });
}

// ---------------------------------------------------------------------------
// RandomEvictionPolicy

std::unique_ptr<CachePolicy::ShardState> RandomEvictionPolicy::MakeShardState(
    uint32_t /*shard_index*/, uint64_t shard_seed, uint64_t /*num_lines*/) {
  auto state = std::make_unique<RngState>();
  state->rng = Rng(shard_seed);
  return state;
}

size_t RandomEvictionPolicy::SelectVictim(ShardState& state,
                                          const ShardLineView& lines,
                                          uint64_t /*incoming_page*/,
                                          int max_probes,
                                          uint64_t* probe_skips) {
  stats_.victim_requests.fetch_add(1, std::memory_order_relaxed);
  Rng& rng = static_cast<RngState&>(state).rng;
  uint64_t skips = 0;
  size_t victim = kNoVictim;
  for (int probe = 0; probe < max_probes; ++probe) {
    size_t candidate = rng.UniformInt(lines.num_lines());
    if (lines.evictable(candidate)) {
      victim = candidate;
      break;
    }
    ++skips;
  }
  *probe_skips += skips;
  stats_.probe_skips.fetch_add(skips, std::memory_order_relaxed);
  if (victim == kNoVictim) {
    stats_.bypasses.fetch_add(1, std::memory_order_relaxed);
    return kNoVictim;
  }
  stats_.victims.fetch_add(1, std::memory_order_relaxed);
  return victim;
}

// ---------------------------------------------------------------------------
// GinexBeladyPolicy

uint64_t GinexBeladyPolicy::NextUseLocked(uint64_t page) const {
  auto it = future_.find(page);
  if (it == future_.end() || it->second.empty()) return UINT64_MAX;
  return it->second.front();
}

size_t GinexBeladyPolicy::SelectVictim(ShardState& /*state*/,
                                       const ShardLineView& lines,
                                       uint64_t incoming_page,
                                       int /*max_probes*/,
                                       uint64_t* /*probe_skips*/) {
  stats_.victim_requests.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  size_t victim = kNoVictim;
  uint64_t victim_next = 0;
  const size_t n = lines.num_lines();
  for (size_t slot = 0; slot < n; ++slot) {
    if (!lines.evictable(slot)) continue;
    uint64_t next = NextUseLocked(lines.page(slot));
    if (victim == kNoVictim || next > victim_next) {
      victim = slot;
      victim_next = next;
      if (next == UINT64_MAX) break;  // cannot do better; lowest such slot
    }
  }
  if (victim == kNoVictim) {
    stats_.bypasses.fetch_add(1, std::memory_order_relaxed);
    return kNoVictim;
  }
  // Belady admission: caching a page whose next use is farther than the
  // best victim's can only displace a sooner-needed page.
  if (NextUseLocked(incoming_page) > victim_next) {
    stats_.admit_rejects.fetch_add(1, std::memory_order_relaxed);
    return kNoVictim;
  }
  stats_.victims.fetch_add(1, std::memory_order_relaxed);
  return victim;
}

void GinexBeladyPolicy::OnAccess(uint64_t page, uint32_t reuses,
                                 bool /*hit*/) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = future_.find(page);
  if (it == future_.end()) return;
  for (uint32_t i = 0; i < reuses && !it->second.empty(); ++i) {
    it->second.pop_front();
  }
  if (it->second.empty()) future_.erase(it);
}

void GinexBeladyPolicy::IngestFutureAccess(uint64_t page) {
  std::lock_guard<std::mutex> lock(mu_);
  future_[page].push_back(next_seq_++);
  stats_.future_ingests.fetch_add(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// PresamplePolicy

std::unique_ptr<CachePolicy::ShardState> PresamplePolicy::MakeShardState(
    uint32_t /*shard_index*/, uint64_t shard_seed, uint64_t /*num_lines*/) {
  auto state = std::make_unique<RngState>();
  state->rng = Rng(shard_seed);
  return state;
}

size_t PresamplePolicy::SelectVictim(ShardState& state,
                                     const ShardLineView& lines,
                                     uint64_t incoming_page, int max_probes,
                                     uint64_t* probe_skips) {
  stats_.victim_requests.fetch_add(1, std::memory_order_relaxed);
  std::shared_ptr<const std::vector<uint64_t>> prio;
  {
    std::lock_guard<std::mutex> lock(rank_mu_);
    prio = page_priority_;
  }
  auto priority_of = [&prio](uint64_t page) -> uint64_t {
    if (prio == nullptr || page >= prio->size()) return 0;
    return (*prio)[page];
  };
  Rng& rng = static_cast<RngState&>(state).rng;
  uint64_t skips = 0;
  size_t victim = kNoVictim;
  uint64_t victim_prio = 0;
  for (int probe = 0; probe < max_probes; ++probe) {
    size_t candidate = rng.UniformInt(lines.num_lines());
    if (!lines.evictable(candidate)) {
      ++skips;
      continue;
    }
    uint64_t p = priority_of(lines.page(candidate));
    if (victim == kNoVictim || p < victim_prio) {
      victim = candidate;
      victim_prio = p;
      if (p == 0) break;  // coldest possible; stop probing
    }
  }
  *probe_skips += skips;
  stats_.probe_skips.fetch_add(skips, std::memory_order_relaxed);
  if (victim == kNoVictim) {
    stats_.bypasses.fetch_add(1, std::memory_order_relaxed);
    return kNoVictim;
  }
  // Admission control: never displace a hotter resident with a colder
  // incoming page.
  if (priority_of(incoming_page) < victim_prio) {
    stats_.admit_rejects.fetch_add(1, std::memory_order_relaxed);
    return kNoVictim;
  }
  stats_.victims.fetch_add(1, std::memory_order_relaxed);
  return victim;
}

void PresamplePolicy::IngestNodeFrequencies(
    std::span<const uint64_t> node_counts, const graph::FeatureStore& layout) {
  // Page priorities: sum of member-node counts.
  auto prio = std::make_shared<std::vector<uint64_t>>(layout.num_pages(), 0);
  const size_t n = std::min<size_t>(node_counts.size(), layout.num_nodes());
  uint64_t nonzero_nodes = 0;
  for (size_t v = 0; v < n; ++v) {
    if (node_counts[v] == 0) continue;
    ++nonzero_nodes;
    auto pr = layout.PagesFor(static_cast<graph::NodeId>(v));
    for (uint64_t page = pr.first; page <= pr.last; ++page) {
      (*prio)[page] += node_counts[v];
    }
  }
  uint64_t nonzero_pages = 0;
  for (uint64_t p : *prio) {
    if (p > 0) ++nonzero_pages;
  }
  // Node ranking: count desc, id asc. Zero-count nodes keep ascending-id
  // order at the tail so a static-buffer budget larger than the observed
  // hot set still fills deterministically.
  std::vector<graph::NodeId> ranking(layout.num_nodes());
  for (size_t v = 0; v < ranking.size(); ++v) {
    ranking[v] = static_cast<graph::NodeId>(v);
  }
  std::stable_sort(ranking.begin(), ranking.end(),
                   [&](graph::NodeId a, graph::NodeId b) {
                     uint64_t ca = a < n ? node_counts[a] : 0;
                     uint64_t cb = b < n ? node_counts[b] : 0;
                     if (ca != cb) return ca > cb;
                     return a < b;
                   });
  {
    std::lock_guard<std::mutex> lock(rank_mu_);
    if (page_priority_ != nullptr) {
      stats_.rerank_rounds.fetch_add(1, std::memory_order_relaxed);
    }
    page_priority_ = std::move(prio);
    ranking_ = std::move(ranking);
  }
  stats_.rank_ingests.fetch_add(1, std::memory_order_relaxed);
  stats_.ranked_nodes.store(nonzero_nodes, std::memory_order_relaxed);
  stats_.ranked_pages.store(nonzero_pages, std::memory_order_relaxed);
}

bool PresamplePolicy::ProvidesHotRanking() const {
  std::lock_guard<std::mutex> lock(rank_mu_);
  return !ranking_.empty();
}

std::vector<graph::NodeId> PresamplePolicy::HotNodeRanking() const {
  std::lock_guard<std::mutex> lock(rank_mu_);
  return ranking_;
}

uint64_t PresamplePolicy::PagePriority(uint64_t page) const {
  std::lock_guard<std::mutex> lock(rank_mu_);
  if (page_priority_ == nullptr || page >= page_priority_->size()) return 0;
  return (*page_priority_)[page];
}

// ---------------------------------------------------------------------------

std::unique_ptr<CachePolicy> MakeCachePolicy(CachePolicyKind kind) {
  switch (kind) {
    case CachePolicyKind::kRandom:
      return std::make_unique<RandomEvictionPolicy>();
    case CachePolicyKind::kGinexBelady:
      return std::make_unique<GinexBeladyPolicy>();
    case CachePolicyKind::kPresample:
      return std::make_unique<PresamplePolicy>();
  }
  GIDS_CHECK(false);
  return nullptr;
}

}  // namespace gids::storage
