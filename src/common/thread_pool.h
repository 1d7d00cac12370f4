#ifndef GIDS_COMMON_THREAD_POOL_H_
#define GIDS_COMMON_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <utility>
#include <vector>

namespace gids {

/// Fixed-size fork-join worker pool used by the CPU-side data-preparation
/// pipeline (the GIDS loader's asynchronous sample batches, the
/// scrubber's per-shard sweep, serving's per-batch sampling, and the
/// parallel R-MAT generator).
///
/// Concurrency contract:
///  - Start/Join: Start() splits [0, n) into chunks, queues helper tasks
///    and returns a Batch at once; the helpers claim chunks from a shared
///    cursor. Batch::Join() runs every chunk nobody has claimed yet on the
///    joining thread, waits for the claimed ones, and rethrows the first
///    exception the body threw. Because the joiner helps, joining inside a
///    batch body that runs on this very pool cannot deadlock, even when
///    that body occupies the pool's only worker.
///  - ParallelFor: starts and joins at once, with one helper fewer than
///    Start() (the caller claims a chunk right away).
///  - Dynamic chunking: ranges are split into more chunks than workers
///    (kChunksPerWorker per thread), so a skewed chunk does not straggle
///    the whole batch.
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  class Batch;

  /// Starts fn(i) for i in [0, n) over dynamically claimed chunks and
  /// returns without waiting; the batch owns `fn`. Join the returned
  /// handle before anything `fn` writes is read.
  Batch Start(size_t n, std::function<void(size_t)> fn);

  /// Runs fn(i) for i in [0, n) across the pool (caller included) and
  /// waits for completion. Rethrows the first exception thrown by fn.
  void ParallelFor(size_t n, std::function<void(size_t)> fn);

  // --- Introspection (lock-free; feed the obs gauges, see
  // obs::BindThreadPoolMetrics).

  /// Helper tasks currently sitting in the queue, not yet claimed by a
  /// worker.
  size_t queue_depth() const {
    return queue_depth_.load(std::memory_order_relaxed);
  }
  /// Workers currently executing a helper task.
  size_t busy_workers() const {
    return busy_workers_.load(std::memory_order_relaxed);
  }
  /// Total helper tasks executed by workers since construction.
  uint64_t tasks_executed() const {
    return tasks_executed_.load(std::memory_order_relaxed);
  }
  /// Total chunks executed on behalf of started batches (joiner-run
  /// chunks included).
  uint64_t chunks_executed() const {
    return chunks_executed_.load(std::memory_order_relaxed);
  }

  /// Chunks-per-worker factor used by the dynamic chunker.
  static constexpr size_t kChunksPerWorker = 4;

 private:
  struct ForState {
    ThreadPool* pool = nullptr;
    std::function<void(size_t)> each;
    std::atomic<size_t> next_chunk{0};
    std::atomic<size_t> chunks_done{0};
    size_t num_chunks = 0;
    size_t chunk_size = 0;
    size_t n = 0;
    std::mutex mu;
    std::condition_variable done_cv;
    std::exception_ptr error;  // first body exception; guarded by mu
  };

  void WorkerLoop();
  /// Chunks [0, n) for `fn` and queues one helper task per chunk, up to
  /// the worker count, except for the `joiner_chunks` (0 or 1) the caller
  /// claims by joining at once.
  Batch Launch(size_t n, std::function<void(size_t)> fn,
               size_t joiner_chunks);
  /// Claims and runs chunks until none is left unclaimed.
  static void RunChunks(ForState& state);

  std::vector<std::thread> workers_;
  /// One entry per helper task: the batch whose chunks it claims.
  std::queue<std::shared_ptr<ForState>> tasks_;
  std::mutex mu_;
  std::condition_variable task_available_;
  bool shutdown_ = false;

  std::atomic<size_t> queue_depth_{0};
  std::atomic<size_t> busy_workers_{0};
  std::atomic<uint64_t> tasks_executed_{0};
  std::atomic<uint64_t> chunks_executed_{0};
};

/// A started ParallelFor (ThreadPool::Start). Move-only. A handle
/// destroyed or assigned over without a Join() joins first; an exception
/// the batch then holds is a CHECK failure, never discarded.
class ThreadPool::Batch {
 public:
  Batch() = default;
  Batch(Batch&&) noexcept = default;
  Batch& operator=(Batch&& other) noexcept;
  ~Batch();

  /// True from Start until the handle is joined.
  bool active() const { return state_ != nullptr; }

  /// Runs every chunk nobody has claimed yet on the calling thread, waits
  /// for the claimed ones, then rethrows the first exception the body
  /// threw. The handle is inactive afterwards; joining an inactive handle
  /// does nothing.
  void Join();

 private:
  friend class ThreadPool;
  explicit Batch(std::shared_ptr<ForState> state) : state_(std::move(state)) {}
  /// Join() for the destructor and assignment: CHECK-fails on an
  /// exception.
  void JoinOrDie() noexcept;

  std::shared_ptr<ForState> state_;
};

}  // namespace gids

#endif  // GIDS_COMMON_THREAD_POOL_H_
