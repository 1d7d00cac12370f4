#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace gids {
namespace {

/// Yields until `done` holds; a pool that never gets there hangs the test
/// until ctest's timeout.
void WaitUntil(const std::function<bool()>& done) {
  while (!done()) std::this_thread::yield();
}

/// Occupies every worker of a pool inside one started batch until
/// Release(): each worker claims one chunk and blocks in it. Nothing the
/// test queues afterwards can start on a worker, so the joining thread
/// runs every chunk itself and queue_depth() counts exactly the helpers
/// queued since.
class BlockedWorkers {
 public:
  explicit BlockedWorkers(ThreadPool& pool)
      : opened_(gate_.get_future().share()) {
    const size_t n = pool.num_threads();
    batch_ = pool.Start(n, [this](size_t) {
      entered_.fetch_add(1);
      opened_.wait();
    });
    WaitUntil([&] { return entered_.load() == n; });
  }
  BlockedWorkers(const BlockedWorkers&) = delete;
  BlockedWorkers& operator=(const BlockedWorkers&) = delete;
  ~BlockedWorkers() { Release(); }

  void Release() {
    if (!batch_.active()) return;
    gate_.set_value();
    batch_.Join();
  }

 private:
  std::promise<void> gate_;
  std::shared_future<void> opened_;
  std::atomic<size_t> entered_{0};
  ThreadPool::Batch batch_;
};

// The helpers Start queues run the batch on their own: every index is
// done before anyone joins.
TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  ThreadPool::Batch batch =
      pool.Start(100, [&counter](size_t) { counter.fetch_add(1); });
  WaitUntil([&] { return counter.load() == 100; });
  batch.Join();
  EXPECT_EQ(counter.load(), 100);
}

// Joining a handle that holds no batch returns at once.
TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  ThreadPool::Batch none;
  none.Join();
  ThreadPool::Batch empty = pool.Start(0, [](size_t) { FAIL(); });
  EXPECT_FALSE(empty.active());
  empty.Join();
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(1000, [&touched](size_t i) { touched[i].fetch_add(1); });
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
  SUCCEED();
}

// Each join waits for exactly its own batch.
TEST(ThreadPoolTest, MultipleWaitCycles) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    pool.Start(20, [&counter](size_t) { counter++; }).Join();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::vector<std::atomic<int>> touched(10);
  pool.ParallelFor(touched.size(), [&touched](size_t i) { touched[i]++; });
  pool.Start(touched.size(), [&touched](size_t i) { touched[i]++; }).Join();
  for (auto& t : touched) EXPECT_EQ(t.load(), 2);
}

// Destroying the pool drains helpers still queued for batches that were
// joined without them: they find nothing to claim, and the workers exit.
TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    BlockedWorkers blocked(pool);
    pool.ParallelFor(50, [&counter](size_t) { counter++; });
    EXPECT_EQ(pool.queue_depth(), 4u);
    blocked.Release();
  }
  EXPECT_EQ(counter.load(), 50);
}

// An exception thrown on a worker, not the joiner, is rethrown from the
// join, and the next batch on the pool does not see it again.
TEST(ThreadPoolTest, SubmittedTaskExceptionRethrownFromWait) {
  ThreadPool pool(2);
  std::atomic<bool> thrown{false};
  ThreadPool::Batch batch = pool.Start(1, [&thrown](size_t) {
    thrown.store(true);
    throw std::runtime_error("task boom");
  });
  WaitUntil([&] { return thrown.load(); });
  EXPECT_THROW(batch.Join(), std::runtime_error);
  std::atomic<int> after{0};
  pool.Start(10, [&after](size_t) { after++; }).Join();
  EXPECT_EQ(after.load(), 10);
}

TEST(ThreadPoolTest, ParallelForRethrowsBodyException) {
  ThreadPool pool(4);
  std::atomic<int> completed{0};
  auto body = [&completed](size_t i) {
    if (i == 37) throw std::runtime_error("body boom");
    completed++;
  };
  EXPECT_THROW(pool.ParallelFor(100, body), std::runtime_error);
  // Every chunk other than the throwing one still executed in full before
  // the rethrow (the throw abandons only the rest of its own chunk), and
  // the call waited for all of them.
  size_t chunk_size = (100 + 4 * ThreadPool::kChunksPerWorker - 1) /
                      (4 * ThreadPool::kChunksPerWorker);
  EXPECT_GE(completed.load() + static_cast<int>(chunk_size), 100);
  EXPECT_LT(completed.load(), 100);
  // Pool remains usable afterwards.
  std::atomic<int> ok{0};
  pool.ParallelFor(10, [&ok](size_t) { ok++; });
  EXPECT_EQ(ok.load(), 10);
}

// Dynamic chunking: a range much larger than the worker count must be
// split into multiple chunks per worker so a slow chunk cannot straggle
// the whole batch.
TEST(ThreadPoolTest, ParallelForUsesDynamicChunks) {
  ThreadPool pool(4);
  uint64_t before = pool.chunks_executed();
  pool.ParallelFor(10000, [](size_t) {});
  uint64_t chunks = pool.chunks_executed() - before;
  EXPECT_GE(chunks, pool.num_threads());
  EXPECT_LE(chunks, (pool.num_threads() + 1) * ThreadPool::kChunksPerWorker);
}

// Tiny ranges must not be over-split: n < chunk budget means one index
// per chunk at most.
TEST(ThreadPoolTest, ParallelForTinyRangeCoversAll) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> touched(3);
  pool.ParallelFor(3, [&touched](size_t i) { touched[i].fetch_add(1); });
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
}

// A batch body running on the pool may start and join a batch on the
// *same* pool. Joiner participation means this cannot deadlock even when
// every worker is occupied by an outer body.
TEST(ThreadPoolTest, NestedParallelForFromPoolTaskDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  pool.Start(4, [&pool, &inner_total](size_t) {
        pool.ParallelFor(25, [&inner_total](size_t) { inner_total++; });
      })
      .Join();
  EXPECT_EQ(inner_total.load(), 4 * 25);
}

// Start returns at once and Join runs whatever nobody has claimed: a batch
// started on a one-worker pool whose worker is blocked still completes on
// the joining thread, while the worker stays blocked.
TEST(ThreadPoolTest, JoinCompletesBatchWhileTheOnlyWorkerIsBlocked) {
  ThreadPool pool(1);
  BlockedWorkers blocked(pool);
  std::vector<std::atomic<int>> touched(10);
  ThreadPool::Batch batch =
      pool.Start(touched.size(), [&touched](size_t i) { touched[i]++; });
  EXPECT_TRUE(batch.active());
  batch.Join();
  EXPECT_FALSE(batch.active());
  EXPECT_EQ(pool.busy_workers(), 1u);
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
  blocked.Release();  // the batch's helper finds nothing left to claim
}

// Join rethrows the first exception the body threw. With the only worker
// blocked the joiner runs every chunk in index order, so "first" is
// deterministic; the throw abandons only the rest of its own chunk.
TEST(ThreadPoolTest, JoinRethrowsFirstException) {
  ThreadPool pool(1);
  BlockedWorkers blocked(pool);
  std::atomic<int> completed{0};
  ThreadPool::Batch batch = pool.Start(20, [&completed](size_t i) {
    if (i == 3 || i == 17) {
      throw std::runtime_error("item " + std::to_string(i));
    }
    completed++;
  });
  try {
    batch.Join();
    ADD_FAILURE() << "Join did not rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "item 3");
  }
  EXPECT_FALSE(batch.active());
  // 20 indices in 4 chunks of 5: the throws abandon items 3 and 4 of
  // chunk [0,5) and items 17 to 19 of chunk [15,20).
  EXPECT_EQ(completed.load(), 15);
}

// A handle dropped without a Join, by destruction or by assigning another
// batch over it, joins it: every index has run when it is gone.
TEST(ThreadPoolTest, DroppedBatchIsJoined) {
  ThreadPool pool(1);
  BlockedWorkers blocked(pool);
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  {
    ThreadPool::Batch batch =
        pool.Start(8, [&first](size_t) { first++; });
    batch = pool.Start(8, [&second](size_t) { second++; });
    EXPECT_EQ(first.load(), 8);
  }
  EXPECT_EQ(second.load(), 8);
}

// ParallelFor's caller joins at once and claims a chunk itself, so it
// queues one helper fewer than Start, whose caller may join much later:
// three chunks on four workers take two helper tasks, or three. With every
// worker blocked, the helpers stay queued where queue_depth() counts them.
TEST(ThreadPoolTest, ParallelForQueuesOneHelperFewerThanStart) {
  ThreadPool pool(4);
  BlockedWorkers blocked(pool);
  EXPECT_EQ(pool.queue_depth(), 0u);
  pool.ParallelFor(3, [](size_t) {});
  EXPECT_EQ(pool.queue_depth(), 2u);
  pool.Start(3, [](size_t) {}).Join();
  EXPECT_EQ(pool.queue_depth(), 5u);
}

TEST(ThreadPoolTest, IntrospectionCountersAdvance) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2u);
  const uint64_t tasks_before = pool.tasks_executed();
  {
    BlockedWorkers blocked(pool);
    EXPECT_EQ(pool.busy_workers(), 2u);
    EXPECT_EQ(pool.queue_depth(), 0u);
  }
  // Both helpers finish their task just after the join returns.
  WaitUntil([&] {
    return pool.tasks_executed() - tasks_before == 2 &&
           pool.busy_workers() == 0;
  });
  EXPECT_EQ(pool.queue_depth(), 0u);
}

}  // namespace
}  // namespace gids
