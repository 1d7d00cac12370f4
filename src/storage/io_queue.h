#ifndef GIDS_STORAGE_IO_QUEUE_H_
#define GIDS_STORAGE_IO_QUEUE_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "common/status.h"

namespace gids::storage {

/// One NVMe read command as enqueued by a (simulated) GPU thread.
struct IoRequest {
  uint64_t lba = 0;
  uint64_t tag = 0;  // caller-chosen identifier, returned on completion
};

/// A fixed-depth submission/completion queue pair, mirroring the BaM
/// per-queue structures that GPU threads drive directly. The functional
/// role here is admission control (queue depth bounds the number of
/// outstanding requests per queue) and bookkeeping for the accumulator's
/// concurrency accounting.
class IoQueuePair {
 public:
  explicit IoQueuePair(uint32_t depth);

  uint32_t depth() const { return depth_; }
  uint32_t outstanding() const { return outstanding_; }
  bool Full() const { return outstanding_ == depth_; }

  /// Enqueues a request; fails with ResourceExhausted when the submission
  /// queue is full. Callers do not spin here: StorageArray's bounded-retry
  /// loop (FAULTS.md) re-issues failed commands with exponential virtual-
  /// time backoff and dead-letters a read once its retries are exhausted.
  Status Submit(const IoRequest& request);

  /// Device side: pops the oldest submitted request for service, if any,
  /// without allocating. The request stays outstanding until its
  /// completion is reaped.
  std::optional<IoRequest> PopOneSubmitted();

  /// Device side: posts a completion for `tag`.
  void Complete(uint64_t tag);

  /// Host/GPU side: reaps one completion if available.
  std::optional<uint64_t> PollCompletion();

  uint64_t total_submitted() const { return total_submitted_; }
  uint64_t total_completed() const { return total_completed_; }

 private:
  uint32_t depth_;
  uint32_t outstanding_ = 0;  // submitted, not yet reaped
  std::vector<IoRequest> submission_;
  std::vector<uint64_t> completion_;
  uint64_t total_submitted_ = 0;
  uint64_t total_completed_ = 0;
};

}  // namespace gids::storage

#endif  // GIDS_STORAGE_IO_QUEUE_H_
