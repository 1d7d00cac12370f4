#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

namespace gids {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.Wait();  // must not hang
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

TEST(ThreadPoolTest, MultipleWaitCycles) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 20; ++i) pool.Submit([&counter] { counter++; });
    pool.Wait();
    EXPECT_EQ(counter.load(), (round + 1) * 20);
  }
}

TEST(ThreadPoolTest, SingleThreadPoolWorks) {
  ThreadPool pool(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&order, i] { order.push_back(i); });
  }
  pool.Wait();
  // One worker executes in FIFO order.
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 50; ++i) pool.Submit([&counter] { counter++; });
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 50);
}

// Regression: a throwing task used to leave Wait() hanging (the in-flight
// count was never decremented) and the exception was silently lost.
TEST(ThreadPoolTest, SubmittedTaskExceptionRethrownFromWait) {
  ThreadPool pool(2);
  std::atomic<int> after{0};
  pool.Submit([] { throw std::runtime_error("task boom"); });
  pool.Submit([&after] { after++; });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
  EXPECT_EQ(after.load(), 1);  // remaining tasks still ran
  // The pool is reusable after an exception; the error does not stick.
  pool.Submit([&after] { after++; });
  pool.Wait();
  EXPECT_EQ(after.load(), 2);
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

// A task running on the pool may start and join a batch on the *same*
// pool. Joiner participation means this cannot deadlock even when every
// worker is occupied by an outer task.
TEST(ThreadPoolTest, NestedParallelForFromPoolTaskDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  for (int t = 0; t < 4; ++t) {
    pool.Submit([&pool, &inner_total] {
      pool.ParallelFor(25, [&inner_total](size_t) { inner_total++; });
    });
  }
  pool.Wait();
  EXPECT_EQ(inner_total.load(), 4 * 25);
}

// Start returns at once and Join runs whatever nobody has claimed: a batch
// started on a one-worker pool whose worker is blocked still completes on
// the joining thread, while the worker stays blocked.
TEST(ThreadPoolTest, JoinCompletesBatchWhileTheOnlyWorkerIsBlocked) {
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::atomic<bool> worker_released{false};
  pool.Submit([opened, &worker_released] {
    opened.wait();
    worker_released.store(true);
  });
  std::vector<std::atomic<int>> touched(10);
  ThreadPool::Batch batch =
      pool.Start(touched.size(), [&touched](size_t i) { touched[i]++; });
  EXPECT_TRUE(batch.active());
  batch.Join();
  EXPECT_FALSE(batch.active());
  EXPECT_FALSE(worker_released.load());
  for (auto& t : touched) EXPECT_EQ(t.load(), 1);
  gate.set_value();
  pool.Wait();  // the batch's helper finds nothing left to claim
  EXPECT_TRUE(worker_released.load());
}

// Join rethrows the first exception the body threw. With the only worker
// blocked the joiner runs every chunk in index order, so "first" is
// deterministic; the throw abandons only the rest of its own chunk.
TEST(ThreadPoolTest, JoinRethrowsFirstException) {
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.Submit([opened] { opened.wait(); });
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
  gate.set_value();
  pool.Wait();
}

// A handle dropped without a Join, by destruction or by assigning another
// batch over it, joins it: every index has run when it is gone.
TEST(ThreadPoolTest, DroppedBatchIsJoined) {
  ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  pool.Submit([opened] { opened.wait(); });
  std::atomic<int> first{0};
  std::atomic<int> second{0};
  {
    ThreadPool::Batch batch =
        pool.Start(8, [&first](size_t) { first++; });
    batch = pool.Start(8, [&second](size_t) { second++; });
    EXPECT_EQ(first.load(), 8);
  }
  EXPECT_EQ(second.load(), 8);
  ThreadPool::Batch empty = pool.Start(0, [](size_t) { FAIL(); });
  EXPECT_FALSE(empty.active());
  gate.set_value();
  pool.Wait();
}

// ParallelFor's caller joins at once and claims a chunk itself, so it
// queues one helper fewer than Start, whose caller may join much later:
// three chunks on four workers take two helper tasks, or three.
TEST(ThreadPoolTest, ParallelForQueuesOneHelperFewerThanStart) {
  ThreadPool pool(4);
  const uint64_t before = pool.tasks_executed();
  pool.ParallelFor(3, [](size_t) {});
  pool.Wait();
  EXPECT_EQ(pool.tasks_executed() - before, 2u);
  pool.Start(3, [](size_t) {}).Join();
  pool.Wait();
  EXPECT_EQ(pool.tasks_executed() - before, 5u);
}

TEST(ThreadPoolTest, IntrospectionCountersAdvance) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.num_threads(), 2u);
  uint64_t tasks_before = pool.tasks_executed();
  for (int i = 0; i < 10; ++i) pool.Submit([] {});
  pool.Wait();
  EXPECT_EQ(pool.tasks_executed() - tasks_before, 10u);
  EXPECT_EQ(pool.queue_depth(), 0u);
  EXPECT_EQ(pool.busy_workers(), 0u);
}

}  // namespace
}  // namespace gids
