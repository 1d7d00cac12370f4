#include "storage/queue_manager.h"

#include "common/check.h"

namespace gids::storage {

QueueManager::QueueManager(uint32_t num_queues, uint32_t depth_per_queue)
    : depth_per_queue_(depth_per_queue) {
  GIDS_CHECK(num_queues > 0);
  GIDS_CHECK(depth_per_queue > 0);
  queues_.reserve(num_queues);
  for (uint32_t i = 0; i < num_queues; ++i) {
    queues_.emplace_back(depth_per_queue);
  }
}

Status QueueManager::RoundTrip(uint64_t lba) {
  std::lock_guard<std::mutex> lock(mu_);
  IoQueuePair& q = queues_[cursor_];
  // Submit before touching any manager state: a full queue returns
  // ResourceExhausted and must leave the cursor and tag counter exactly
  // where they were, so the caller's retry lands on the same queue with
  // the same tag instead of silently skipping a queue and burning a tag.
  GIDS_RETURN_IF_ERROR(q.Submit(IoRequest{.lba = lba, .tag = next_tag_}));
  cursor_ = (cursor_ + 1) % queues_.size();
  uint64_t tag = next_tag_++;
  // Device side services the command immediately (latency is accounted by
  // the timing models, not here).
  std::optional<IoRequest> popped = q.PopOneSubmitted();
  GIDS_CHECK(popped.has_value());
  q.Complete(popped->tag);
  auto done = q.PollCompletion();
  GIDS_CHECK(done.has_value() && *done == tag);
  ++total_submissions_;
  return Status::OK();
}

}  // namespace gids::storage
