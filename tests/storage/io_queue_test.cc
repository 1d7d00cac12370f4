#include "storage/io_queue.h"

#include <gtest/gtest.h>

namespace gids::storage {
namespace {

TEST(IoQueuePairTest, SubmitAndComplete) {
  IoQueuePair q(4);
  EXPECT_TRUE(q.Submit({.lba = 10, .tag = 1}).ok());
  EXPECT_EQ(q.outstanding(), 1u);
  auto popped = q.PopOneSubmitted();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->lba, 10u);
  EXPECT_FALSE(q.PopOneSubmitted().has_value());
  q.Complete(1);
  auto done = q.PollCompletion();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(*done, 1u);
  EXPECT_EQ(q.outstanding(), 0u);
}

TEST(IoQueuePairTest, FullQueueRejects) {
  IoQueuePair q(2);
  EXPECT_TRUE(q.Submit({.lba = 0, .tag = 0}).ok());
  EXPECT_TRUE(q.Submit({.lba = 1, .tag = 1}).ok());
  EXPECT_TRUE(q.Full());
  EXPECT_EQ(q.Submit({.lba = 2, .tag = 2}).code(),
            StatusCode::kResourceExhausted);
}

TEST(IoQueuePairTest, DepthFreesAfterReap) {
  IoQueuePair q(1);
  ASSERT_TRUE(q.Submit({.lba = 0, .tag = 7}).ok());
  ASSERT_TRUE(q.PopOneSubmitted().has_value());
  q.Complete(7);
  EXPECT_TRUE(q.Full());  // still outstanding until reaped
  ASSERT_TRUE(q.PollCompletion().has_value());
  EXPECT_FALSE(q.Full());
  EXPECT_TRUE(q.Submit({.lba = 1, .tag = 8}).ok());
}

TEST(IoQueuePairTest, PopRespectsMax) {
  // Popping hands requests to the device in FIFO order but frees no
  // admission slot: the queue still holds at most depth() outstanding
  // requests until their completions are reaped.
  IoQueuePair q(8);
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.Submit({.lba = i, .tag = i}).ok());
  }
  for (uint64_t i = 0; i < 3; ++i) {
    auto popped = q.PopOneSubmitted();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->tag, i);
  }
  EXPECT_EQ(q.outstanding(), 5u);
  for (uint64_t i = 5; i < 8; ++i) {
    ASSERT_TRUE(q.Submit({.lba = i, .tag = i}).ok());
  }
  EXPECT_EQ(q.Submit({.lba = 8, .tag = 8}).code(),
            StatusCode::kResourceExhausted);
  for (uint64_t i = 3; i < 8; ++i) {
    auto popped = q.PopOneSubmitted();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->tag, i);
  }
  EXPECT_FALSE(q.PopOneSubmitted().has_value());
}

TEST(IoQueuePairTest, PopAtExactDepthBoundary) {
  // A queue filled to exactly depth_ pops every entry in order, then
  // reports an empty submission queue.
  IoQueuePair q(4);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.Submit({.lba = i, .tag = i}).ok());
  }
  ASSERT_TRUE(q.Full());
  for (uint64_t i = 0; i < 4; ++i) {
    auto popped = q.PopOneSubmitted();
    ASSERT_TRUE(popped.has_value());
    EXPECT_EQ(popped->tag, i);
  }
  EXPECT_FALSE(q.PopOneSubmitted().has_value());
  EXPECT_TRUE(q.Full());  // popped, not yet reaped
}

TEST(IoQueuePairTest, PollOnEmptyCompletion) {
  IoQueuePair q(2);
  EXPECT_FALSE(q.PollCompletion().has_value());
}

TEST(IoQueuePairTest, Counters) {
  IoQueuePair q(4);
  for (uint64_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(q.Submit({.lba = i, .tag = i}).ok());
  }
  while (q.PopOneSubmitted().has_value()) {
  }
  for (uint64_t i = 0; i < 4; ++i) q.Complete(i);
  while (q.PollCompletion().has_value()) {
  }
  EXPECT_EQ(q.total_submitted(), 4u);
  EXPECT_EQ(q.total_completed(), 4u);
  EXPECT_EQ(q.outstanding(), 0u);
}

}  // namespace
}  // namespace gids::storage
