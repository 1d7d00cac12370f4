#include "storage/io_queue.h"

#include "common/check.h"

namespace gids::storage {

IoQueuePair::IoQueuePair(uint32_t depth) : depth_(depth) {
  GIDS_CHECK(depth > 0);
  submission_.reserve(depth);
  completion_.reserve(depth);
}

Status IoQueuePair::Submit(const IoRequest& request) {
  if (Full()) return Status::ResourceExhausted("submission queue full");
  submission_.push_back(request);
  ++outstanding_;
  ++total_submitted_;
  return Status::OK();
}

std::optional<IoRequest> IoQueuePair::PopOneSubmitted() {
  if (submission_.empty()) return std::nullopt;
  IoRequest request = submission_.front();
  submission_.erase(submission_.begin());
  return request;
}

void IoQueuePair::Complete(uint64_t tag) {
  GIDS_CHECK(completion_.size() < depth_);
  completion_.push_back(tag);
  ++total_completed_;
}

std::optional<uint64_t> IoQueuePair::PollCompletion() {
  if (completion_.empty()) return std::nullopt;
  uint64_t tag = completion_.front();
  completion_.erase(completion_.begin());
  GIDS_CHECK(outstanding_ > 0);
  --outstanding_;
  return tag;
}

}  // namespace gids::storage
