#ifndef GIDS_COMMON_WORKSPACE_POOL_H_
#define GIDS_COMMON_WORKSPACE_POOL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <mutex>
#include <new>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"

namespace gids {

/// Relaxed fetch-max over an atomic (high-water-mark updates).
inline void AtomicFetchMax(std::atomic<uint64_t>& a, uint64_t v) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur < v &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

/// Size-bucketed pool of reusable byte arenas (DESIGN.md §11). Blocks come
/// in power-of-two classes from 64 B up; Acquire rounds the request up to
/// its class and serves it from a per-thread cache, then the class's global
/// free list, and only allocates when both are empty. Release returns the
/// block for reuse — pooled blocks are never freed back to the OS, so after
/// a warmup epoch the hot loop's scratch demand is met entirely from
/// recycled memory (steady-state zero allocations; the bench gate asserts
/// this via the gids_ws_* metrics).
///
/// Thread safety: Acquire/Release/stats are safe from any thread. The
/// per-thread cache serves only the process-wide Default() pool (which is
/// intentionally leaked, so worker threads exiting after static
/// destruction can still flush their caches); pools constructed directly
/// (tests) skip the thread cache and go straight to the global lists.
///
/// Lifetime rule: a Workspace must not outlive its pool. Everything bound
/// to Default() trivially satisfies this; test-local pools must outlive
/// their workspaces.
class WorkspacePool {
 public:
  /// Smallest block class. Sub-64 B requests round up.
  static constexpr size_t kMinBlockBytes = 64;
  /// Block classes: 64 B << (kNumBuckets - 1) = 2 GiB. Larger requests are
  /// served unpooled (allocated and freed per use, counted as allocs).
  static constexpr uint32_t kNumBuckets = 26;
  /// Blocks of one class a thread may park in its local cache.
  static constexpr size_t kThreadCacheSlots = 4;

  WorkspacePool() = default;
  ~WorkspacePool();
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  /// The process-wide pool every default-constructed Workspace binds to.
  /// Leaked on purpose: thread_local cache flushes at thread exit must
  /// always find it alive.
  static WorkspacePool& Default();

  struct Block {
    std::byte* data = nullptr;
    size_t bytes = 0;     // usable capacity (the class size)
    uint32_t bucket = 0;
    bool pooled = false;  // false: raw allocation (disabled or oversize)
  };

  /// Returns a block of at least `min_bytes` usable bytes. min_bytes == 0
  /// returns an empty block (no accounting).
  Block Acquire(size_t min_bytes);
  /// Returns `b` to the pool (or frees it if unpooled). Safe on empty
  /// blocks.
  void Release(Block b);

  /// Class index serving `bytes` (>= 1); kNumBuckets for oversize.
  static uint32_t BucketFor(size_t bytes);
  /// Usable bytes of class `bucket`.
  static size_t BucketBytes(uint32_t bucket) {
    return kMinBlockBytes << bucket;
  }

  /// Escape hatch (--no-workspace-pool): disabled, every Acquire is a
  /// fresh allocation and every Release a free — the behaviour, though not
  /// the speed, of the pooled path, which is what the bit-identity tests
  /// pin. Affects subsequent Acquires only.
  void set_enabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Tops up every used class's global free list so that the observed
  /// concurrent-use high-water mark plus every live thread's full cache
  /// can be served without allocating. After Prewarm, an Acquire can only
  /// allocate if demand exceeds the warmed high-water mark — and a spare
  /// class one size up is warmed too, so steady-state phases whose peak
  /// block class wobbles by one stay allocation-free. No-op when disabled.
  void Prewarm();

  // --- Stats (lock-free reads; exported as gids_ws_* metrics).
  uint64_t acquires_total() const {
    return acquires_.load(std::memory_order_relaxed);
  }
  /// Acquires served from the thread cache or a free list.
  uint64_t hits_total() const {
    return hits_.load(std::memory_order_relaxed);
  }
  /// Acquires that allocated (pooled classes, oversize, and disabled-mode
  /// passthrough). acquires == hits + allocs.
  uint64_t allocs_total() const {
    return allocs_.load(std::memory_order_relaxed);
  }
  /// Allocations charged to one class (excludes oversize/disabled).
  uint64_t allocs_total(uint32_t bucket) const {
    GIDS_CHECK(bucket < kNumBuckets);
    return buckets_[bucket].allocs.load(std::memory_order_relaxed);
  }
  /// Bytes currently acquired and not yet released.
  uint64_t bytes_outstanding() const {
    return bytes_outstanding_.load(std::memory_order_relaxed);
  }
  /// Threads with a live cache for this pool.
  uint64_t live_thread_caches() const {
    return live_thread_caches_.load(std::memory_order_relaxed);
  }

 private:
  friend struct WorkspaceThreadCache;

  struct BucketState {
    std::mutex mu;
    std::vector<std::byte*> free_list;
    /// Pooled blocks ever created for this class (they are never freed
    /// while pooling is on, so this is also the class's total population).
    std::atomic<uint64_t> created{0};
    std::atomic<uint64_t> allocs{0};
    std::atomic<uint64_t> outstanding{0};
    std::atomic<uint64_t> outstanding_hwm{0};
  };

  std::byte* PopGlobal(uint32_t bucket);
  void PushGlobal(uint32_t bucket, std::byte* p);

  BucketState buckets_[kNumBuckets];
  std::atomic<bool> enabled_{true};
  std::atomic<uint64_t> acquires_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> allocs_{0};
  std::atomic<uint64_t> bytes_outstanding_{0};
  std::atomic<uint64_t> live_thread_caches_{0};
};

/// RAII typed view over a pooled block with the std::vector surface the
/// hot paths need (resize/reserve/push_back/assign/clear/span). Growth
/// swaps to the next block class and memcpys; resize value-initializes new
/// elements (so a pooled buffer behaves exactly like a fresh vector).
/// clear() keeps capacity — the reuse idiom. Move-only; the destructor
/// releases the block back to the pool.
///
/// T must be trivially copyable (the pool recycles raw bytes); this covers
/// every hot-loop scratch type (node ids, page accesses, counters, PODs).
template <typename T>
class Workspace {
  static_assert(std::is_trivially_copyable_v<T>,
                "Workspace recycles raw bytes; T must be trivially copyable");
  static_assert(alignof(T) <= alignof(std::max_align_t),
                "pool blocks are max_align_t-aligned");

 public:
  explicit Workspace(WorkspacePool* pool = &WorkspacePool::Default())
      : pool_(pool) {}
  ~Workspace() { pool_->Release(block_); }

  Workspace(Workspace&& o) noexcept
      : pool_(o.pool_), block_(o.block_), size_(o.size_) {
    o.block_ = {};
    o.size_ = 0;
  }
  Workspace& operator=(Workspace&& o) noexcept {
    if (this != &o) {
      pool_->Release(block_);
      pool_ = o.pool_;
      block_ = o.block_;
      size_ = o.size_;
      o.block_ = {};
      o.size_ = 0;
    }
    return *this;
  }
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  T* data() { return reinterpret_cast<T*>(block_.data); }
  const T* data() const { return reinterpret_cast<const T*>(block_.data); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return block_.bytes / sizeof(T); }

  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }
  T& back() { return data()[size_ - 1]; }
  T& front() { return data()[0]; }

  std::span<T> span() { return {data(), size_}; }
  std::span<const T> span() const { return {data(), size_}; }

  void clear() { size_ = 0; }

  void reserve(size_t n) {
    if (n > capacity()) Grow(n);
  }

  /// Value-initializes elements [size, n) on growth, like vector::resize
  /// (recycled bytes never leak into results, pooled or not).
  void resize(size_t n) {
    if (n > size_) {
      reserve(n);
      for (size_t i = size_; i < n; ++i) new (data() + i) T{};
    }
    size_ = n;
  }

  void push_back(T v) {
    if (size_ == capacity()) Grow(size_ + 1);
    data()[size_++] = v;
  }

  void assign(size_t n, T v) {
    clear();
    reserve(n);
    for (size_t i = 0; i < n; ++i) data()[i] = v;
    size_ = n;
  }

  template <typename It>
    requires(!std::is_integral_v<It>)
  void assign(It first, It last) {
    clear();
    reserve(static_cast<size_t>(last - first));
    for (It it = first; it != last; ++it) data()[size_++] = *it;
  }

  void assign(std::span<const T> src) { assign(src.begin(), src.end()); }

 private:
  void Grow(size_t min_elems) {
    WorkspacePool::Block next = pool_->Acquire(min_elems * sizeof(T));
    if (size_ > 0) std::memcpy(next.data, block_.data, size_ * sizeof(T));
    pool_->Release(block_);
    block_ = next;
  }

  WorkspacePool* pool_;
  WorkspacePool::Block block_;
  size_t size_ = 0;
};

/// Open-addressing hash map over pool-backed storage: the zero-allocation
/// replacement for the samplers' per-layer std::unordered_map scratch.
/// Linear probing, pow2 capacity, load factor <= 1/2. Lookup/insert only —
/// no iteration, so (unlike unordered_map, whose iteration order depends
/// on the standard library's bucket count) it cannot leak memory layout
/// into results. K must be an unsigned integral key that never takes its
/// maximum value (the empty-slot sentinel): node ids (kInvalidNode) and
/// page ids qualify.
template <typename K, typename V>
class PooledFlatMap {
  static_assert(std::is_unsigned_v<K>);
  static constexpr K kEmpty = std::numeric_limits<K>::max();

 public:
  explicit PooledFlatMap(WorkspacePool* pool = &WorkspacePool::Default())
      : keys_(pool), vals_(pool) {}

  /// Clears and sizes the table for about `expected` insertions.
  void Reset(size_t expected) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;
    keys_.assign(cap, kEmpty);
    vals_.resize(cap);
    mask_ = cap - 1;
    size_ = 0;
  }

  size_t size() const { return size_; }

  V* Find(K key) {
    GIDS_DCHECK(key != kEmpty);
    for (size_t i = Hash(key);; i = (i + 1) & mask_) {
      if (keys_[i] == key) return &vals_[i];
      if (keys_[i] == kEmpty) return nullptr;
    }
  }

  /// Inserts (key, value) if absent; returns the slot and whether it
  /// inserted (the unordered_map::try_emplace contract the samplers use).
  std::pair<V*, bool> TryEmplace(K key, V value) {
    GIDS_DCHECK(key != kEmpty);
    for (size_t i = Hash(key);; i = (i + 1) & mask_) {
      if (keys_[i] == key) return {&vals_[i], false};
      if (keys_[i] == kEmpty) {
        keys_[i] = key;
        vals_[i] = value;
        if (++size_ * 2 > mask_ + 1) {
          Rehash();
          return {Find(key), true};
        }
        return {&vals_[i], true};
      }
    }
  }

 private:
  size_t Hash(K key) const {
    uint64_t z = static_cast<uint64_t>(key) + 0x9e3779b97f4a7c15ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return static_cast<size_t>(z ^ (z >> 31)) & mask_;
  }

  void Rehash() {
    Workspace<K> old_keys(std::move(keys_));
    Workspace<V> old_vals(std::move(vals_));
    size_t cap = (mask_ + 1) * 2;
    keys_ = Workspace<K>();
    vals_ = Workspace<V>();
    keys_.assign(cap, kEmpty);
    vals_.resize(cap);
    mask_ = cap - 1;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      for (size_t j = Hash(old_keys[i]);; j = (j + 1) & mask_) {
        if (keys_[j] == kEmpty) {
          keys_[j] = old_keys[i];
          vals_[j] = old_vals[i];
          break;
        }
      }
    }
  }

  Workspace<K> keys_;
  Workspace<V> vals_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace gids

#endif  // GIDS_COMMON_WORKSPACE_POOL_H_
