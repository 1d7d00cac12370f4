#include "common/thread_pool.h"

#include <algorithm>

#include "common/check.h"

namespace gids {

ThreadPool::ThreadPool(size_t num_threads) {
  GIDS_CHECK(num_threads > 0);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  task_available_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool::Batch ThreadPool::Launch(size_t n,
                                     std::function<void(size_t)> fn,
                                     size_t joiner_chunks) {
  if (n == 0) return Batch();
  const size_t target_chunks =
      std::min(n, std::max<size_t>(1, workers_.size() * kChunksPerWorker));
  auto state = std::make_shared<ForState>();
  state->pool = this;
  state->each = std::move(fn);
  state->chunk_size = (n + target_chunks - 1) / target_chunks;
  state->num_chunks = (n + state->chunk_size - 1) / state->chunk_size;
  state->n = n;
  // Queued helpers hold a shared_ptr, so one that wakes after the join
  // still finds valid (if exhausted) state; it never calls the body once
  // every chunk is claimed.
  const size_t helpers =
      std::min(workers_.size(), state->num_chunks - joiner_chunks);
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t h = 0; h < helpers; ++h) tasks_.push(state);
    queue_depth_.fetch_add(helpers, std::memory_order_relaxed);
  }
  for (size_t h = 0; h < helpers; ++h) task_available_.notify_one();
  return Batch(std::move(state));
}

ThreadPool::Batch ThreadPool::Start(size_t n,
                                    std::function<void(size_t)> fn) {
  return Launch(n, std::move(fn), /*joiner_chunks=*/0);
}

void ThreadPool::ParallelFor(size_t n, std::function<void(size_t)> fn) {
  Launch(n, std::move(fn), /*joiner_chunks=*/1).Join();
}

void ThreadPool::RunChunks(ForState& state) {
  for (;;) {
    size_t c = state.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (c >= state.num_chunks) return;
    size_t begin = c * state.chunk_size;
    size_t end = std::min(state.n, begin + state.chunk_size);
    try {
      for (size_t i = begin; i < end; ++i) state.each(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(state.mu);
      if (state.error == nullptr) state.error = std::current_exception();
    }
    state.pool->chunks_executed_.fetch_add(1, std::memory_order_relaxed);
    if (state.chunks_done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        state.num_chunks) {
      std::lock_guard<std::mutex> lock(state.mu);
      state.done_cv.notify_all();
    }
  }
}

void ThreadPool::Batch::Join() {
  if (state_ == nullptr) return;
  std::shared_ptr<ForState> state = std::move(state_);
  RunChunks(*state);
  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock, [&] {
    return state->chunks_done.load(std::memory_order_acquire) >=
           state->num_chunks;
  });
  if (state->error != nullptr) {
    std::exception_ptr error = std::move(state->error);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::Batch::JoinOrDie() noexcept {
  try {
    Join();
  } catch (...) {
    GIDS_CHECK_MSG(false, "ThreadPool::Batch dropped without Join() held an "
                          "exception");
  }
}

ThreadPool::Batch& ThreadPool::Batch::operator=(Batch&& other) noexcept {
  if (this != &other) {
    JoinOrDie();
    state_ = std::move(other.state_);
  }
  return *this;
}

ThreadPool::Batch::~Batch() { JoinOrDie(); }

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::shared_ptr<ForState> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      task_available_.wait(lock,
                           [this] { return shutdown_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // shut down with nothing left queued
      batch = std::move(tasks_.front());
      tasks_.pop();
      queue_depth_.fetch_sub(1, std::memory_order_relaxed);
    }
    busy_workers_.fetch_add(1, std::memory_order_relaxed);
    RunChunks(*batch);  // catches the body's exceptions itself
    busy_workers_.fetch_sub(1, std::memory_order_relaxed);
    tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace gids
