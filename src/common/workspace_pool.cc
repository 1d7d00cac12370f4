#include "common/workspace_pool.h"

#include <algorithm>
#include <bit>
#include <cstdlib>

namespace gids {
namespace {

std::byte* AllocBlock(size_t bytes) {
  void* p = std::malloc(bytes);
  GIDS_CHECK(p != nullptr);
  return static_cast<std::byte*>(p);
}

}  // namespace

/// Per-thread stash of blocks for the Default() pool, so steady-state
/// acquire/release on worker threads touches no lock. Registered threads
/// flush back to the global free lists on thread exit; Default() is leaked
/// so that flush always finds the pool alive.
struct WorkspaceThreadCache {
  std::byte* slots[WorkspacePool::kNumBuckets]
                  [WorkspacePool::kThreadCacheSlots] = {};
  size_t count[WorkspacePool::kNumBuckets] = {};
  bool registered = false;

  void Register(WorkspacePool* pool) {
    if (!registered) {
      registered = true;
      pool->live_thread_caches_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  ~WorkspaceThreadCache() {
    WorkspacePool& pool = WorkspacePool::Default();
    for (uint32_t b = 0; b < WorkspacePool::kNumBuckets; ++b) {
      for (size_t i = 0; i < count[b]; ++i) pool.PushGlobal(b, slots[b][i]);
      count[b] = 0;
    }
    if (registered) {
      pool.live_thread_caches_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
};

namespace {
thread_local WorkspaceThreadCache t_cache;
}  // namespace

WorkspacePool& WorkspacePool::Default() {
  static WorkspacePool* pool = new WorkspacePool();  // leaked; see class doc
  return *pool;
}

WorkspacePool::~WorkspacePool() {
  for (auto& bucket : buckets_) {
    for (std::byte* p : bucket.free_list) std::free(p);
    bucket.free_list.clear();
  }
}

uint32_t WorkspacePool::BucketFor(size_t bytes) {
  if (bytes <= kMinBlockBytes) return 0;
  uint32_t b = static_cast<uint32_t>(
      std::bit_width(bytes - 1) - std::bit_width(kMinBlockBytes - 1));
  return b < kNumBuckets ? b : kNumBuckets;
}

std::byte* WorkspacePool::PopGlobal(uint32_t bucket) {
  BucketState& bs = buckets_[bucket];
  std::lock_guard<std::mutex> lock(bs.mu);
  if (bs.free_list.empty()) return nullptr;
  std::byte* p = bs.free_list.back();
  bs.free_list.pop_back();
  return p;
}

void WorkspacePool::PushGlobal(uint32_t bucket, std::byte* p) {
  BucketState& bs = buckets_[bucket];
  std::lock_guard<std::mutex> lock(bs.mu);
  bs.free_list.push_back(p);
}

WorkspacePool::Block WorkspacePool::Acquire(size_t min_bytes) {
  if (min_bytes == 0) return {};
  acquires_.fetch_add(1, std::memory_order_relaxed);

  if (!enabled()) {
    allocs_.fetch_add(1, std::memory_order_relaxed);
    bytes_outstanding_.fetch_add(min_bytes, std::memory_order_relaxed);
    return {AllocBlock(min_bytes), min_bytes, 0, /*pooled=*/false};
  }

  uint32_t bucket = BucketFor(min_bytes);
  if (bucket >= kNumBuckets) {  // oversize: unpooled one-shot allocation
    allocs_.fetch_add(1, std::memory_order_relaxed);
    bytes_outstanding_.fetch_add(min_bytes, std::memory_order_relaxed);
    return {AllocBlock(min_bytes), min_bytes, 0, /*pooled=*/false};
  }

  BucketState& bs = buckets_[bucket];
  bytes_outstanding_.fetch_add(BucketBytes(bucket), std::memory_order_relaxed);
  uint64_t out = bs.outstanding.fetch_add(1, std::memory_order_relaxed) + 1;
  AtomicFetchMax(bs.outstanding_hwm, out);

  Block blk{nullptr, BucketBytes(bucket), bucket, /*pooled=*/true};
  if (this == &Default()) {
    t_cache.Register(this);
    if (t_cache.count[bucket] > 0) {
      blk.data = t_cache.slots[bucket][--t_cache.count[bucket]];
      hits_.fetch_add(1, std::memory_order_relaxed);
      return blk;
    }
  }
  if (std::byte* p = PopGlobal(bucket)) {
    blk.data = p;
    hits_.fetch_add(1, std::memory_order_relaxed);
    return blk;
  }
  allocs_.fetch_add(1, std::memory_order_relaxed);
  bs.allocs.fetch_add(1, std::memory_order_relaxed);
  bs.created.fetch_add(1, std::memory_order_relaxed);
  blk.data = AllocBlock(blk.bytes);
  return blk;
}

void WorkspacePool::Release(Block b) {
  if (b.data == nullptr) return;
  bytes_outstanding_.fetch_sub(b.bytes, std::memory_order_relaxed);
  if (!b.pooled) {
    std::free(b.data);
    return;
  }
  buckets_[b.bucket].outstanding.fetch_sub(1, std::memory_order_relaxed);
  if (this == &Default() &&
      t_cache.count[b.bucket] < kThreadCacheSlots) {
    t_cache.Register(this);
    t_cache.slots[b.bucket][t_cache.count[b.bucket]++] = b.data;
    return;
  }
  PushGlobal(b.bucket, b.data);
}

void WorkspacePool::Prewarm() {
  if (!enabled()) return;
  uint64_t threads = live_thread_caches_.load(std::memory_order_relaxed) + 1;
  // Demand a class must cover: its own concurrent high-water mark, plus the
  // mark of the class below (a steady-state request that crosses one pow2
  // boundary after warmup lands here), plus every thread cache full of this
  // class — cached blocks are invisible to other threads, so the global
  // list must be able to satisfy peak demand even if each live thread has
  // stranded kThreadCacheSlots blocks.
  for (uint32_t b = 0; b < kNumBuckets; ++b) {
    uint64_t hwm = buckets_[b].outstanding_hwm.load(std::memory_order_relaxed);
    if (b > 0) {
      hwm = std::max(
          hwm, buckets_[b - 1].outstanding_hwm.load(std::memory_order_relaxed));
    }
    if (hwm == 0) continue;
    uint64_t want = hwm + threads * kThreadCacheSlots;
    uint64_t have = buckets_[b].created.load(std::memory_order_relaxed);
    for (; have < want; ++have) {
      buckets_[b].created.fetch_add(1, std::memory_order_relaxed);
      PushGlobal(b, AllocBlock(BucketBytes(b)));
    }
  }
}

}  // namespace gids
