#include "serving/slo_scheduler.h"

#include <cstddef>
#include <limits>
#include <tuple>
#include <utility>

#include "common/check.h"

namespace gids::serving {

void SloScheduler::Enqueue(FormedBatch batch) {
  backlog_.push_back(std::move(batch));
  if (backlog_.size() > max_backlog_) max_backlog_ = backlog_.size();
}

TimeNs SloScheduler::EarliestDeadline(const FormedBatch& b) {
  TimeNs earliest = std::numeric_limits<TimeNs>::max();
  for (const Request& r : b.requests) {
    if (r.deadline_ns < earliest) earliest = r.deadline_ns;
  }
  return earliest;
}

FormedBatch SloScheduler::PopNext(TimeNs now) {
  GIDS_CHECK(!backlog_.empty());
  const TimeNs p50 = EstimateP50();
  // Scheduling key: feasible batches first, then earliest deadline, then
  // close time, then batch id — a deterministic total order.
  auto key = [&](const FormedBatch& b) {
    TimeNs deadline = EarliestDeadline(b);
    int infeasible = (deadline < now + p50) ? 1 : 0;
    return std::make_tuple(infeasible, deadline, b.close_ns, b.id);
  };
  size_t best = 0;
  auto best_key = key(backlog_[0]);
  for (size_t i = 1; i < backlog_.size(); ++i) {
    auto k = key(backlog_[i]);
    if (k < best_key) {
      best = i;
      best_key = k;
    }
  }
  FormedBatch out = std::move(backlog_[best]);
  backlog_.erase(backlog_.begin() + static_cast<ptrdiff_t>(best));
  return out;
}

void SloScheduler::RecordService(TimeNs service_ns) {
  service_.Add(static_cast<uint64_t>(service_ns));
}

TimeNs SloScheduler::EstimateP50() const {
  return static_cast<TimeNs>(service_.Percentile(0.50));
}

TimeNs SloScheduler::EstimateP99() const {
  return static_cast<TimeNs>(service_.Percentile(0.99));
}

}  // namespace gids::serving
