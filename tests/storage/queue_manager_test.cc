#include "storage/queue_manager.h"

#include <gtest/gtest.h>

namespace gids::storage {
namespace {

TEST(QueueManagerTest, GeometryAndDepth) {
  QueueManager qm(4, 16);
  EXPECT_EQ(qm.num_queues(), 4u);
  EXPECT_EQ(qm.depth_per_queue(), 16u);
  EXPECT_EQ(qm.total_depth(), 64u);
}

TEST(QueueManagerTest, RoundTripCompletesCleanly) {
  QueueManager qm(2, 4);
  for (uint64_t lba = 0; lba < 100; ++lba) {
    ASSERT_TRUE(qm.RoundTrip(lba).ok());
  }
  EXPECT_EQ(qm.total_submissions(), 100u);
  for (uint32_t q = 0; q < qm.num_queues(); ++q) {
    EXPECT_EQ(qm.queue(q).outstanding(), 0u);
  }
}

TEST(QueueManagerTest, RoundRobinSpreadsLoad) {
  QueueManager qm(4, 8);
  for (uint64_t lba = 0; lba < 40; ++lba) {
    ASSERT_TRUE(qm.RoundTrip(lba).ok());
  }
  for (uint32_t q = 0; q < 4; ++q) {
    EXPECT_EQ(qm.queue(q).total_submitted(), 10u);
  }
}

TEST(QueueManagerTest, FullQueueRejectsWithoutAdvancingCursor) {
  QueueManager qm(2, 1);
  // Fill queue 0 from the device side so the next RoundTrip submission is
  // rejected by admission control.
  ASSERT_TRUE(qm.mutable_queue(0).Submit({.lba = 99, .tag = 1000}).ok());
  EXPECT_EQ(qm.RoundTrip(1).code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(qm.total_submissions(), 0u);
  // Drain the stuck command; the retry must land on queue 0 again — a
  // failed submission leaves the round-robin cursor where it was instead
  // of silently skipping to queue 1.
  auto popped = qm.mutable_queue(0).PopOneSubmitted();
  ASSERT_TRUE(popped.has_value());
  qm.mutable_queue(0).Complete(popped->tag);
  ASSERT_TRUE(qm.mutable_queue(0).PollCompletion().has_value());
  ASSERT_TRUE(qm.RoundTrip(1).ok());
  EXPECT_EQ(qm.queue(0).total_submitted(), 2u);  // stuck fill + the retry
  EXPECT_EQ(qm.queue(1).total_submitted(), 0u);
  // Round-robin resumes normally after the successful retry.
  ASSERT_TRUE(qm.RoundTrip(2).ok());
  EXPECT_EQ(qm.queue(1).total_submitted(), 1u);
  EXPECT_EQ(qm.total_submissions(), 2u);
}

TEST(QueueManagerTest, DepthOneWorks) {
  QueueManager qm(1, 1);
  ASSERT_TRUE(qm.RoundTrip(7).ok());
  ASSERT_TRUE(qm.RoundTrip(8).ok());
  EXPECT_EQ(qm.total_submissions(), 2u);
}

}  // namespace
}  // namespace gids::storage
