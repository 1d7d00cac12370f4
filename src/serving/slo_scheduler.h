#ifndef GIDS_SERVING_SLO_SCHEDULER_H_
#define GIDS_SERVING_SLO_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "serving/request.h"

namespace gids::serving {

/// Orders formed batches for execution by per-request deadline, informed
/// by running service-time quantiles.
///
/// Policy: feasibility-aware earliest-deadline-first. A batch is feasible
/// when its earliest member deadline can still be met if service starts
/// now and takes the running p50 service estimate; infeasible batches
/// (already doomed at the median) are deprioritized behind every feasible
/// one, so a hopeless straggler cannot drag fresh requests past their own
/// deadlines — the goodput-maximizing refinement of plain EDF. Within
/// each class the order is (earliest deadline, close time, batch id), a
/// total order, so scheduling is deterministic.
///
/// The scheduler owns one running service-time histogram: the server
/// records one sample per executed batch (`RecordService`), and the
/// p50/p99 estimates read it directly, so a dispatch costs the same at
/// any run length.
class SloScheduler {
 public:
  void Enqueue(FormedBatch batch);

  bool empty() const { return backlog_.empty(); }
  size_t backlog() const { return backlog_.size(); }
  size_t max_backlog() const { return max_backlog_; }

  /// Pops the next batch to execute at virtual time `now` under the
  /// feasibility-aware EDF order. Backlog must be non-empty.
  FormedBatch PopNext(TimeNs now);

  /// Folds one executed batch's service time into the running estimate.
  /// The estimate depends only on the multiset of samples, so lanes may
  /// record their batches in any order.
  void RecordService(TimeNs service_ns);

  /// Service-time quantiles over every recorded batch; 0 before the first
  /// completion (every batch is then feasible — cold-start optimism,
  /// resolved after one service sample).
  TimeNs EstimateP50() const;
  TimeNs EstimateP99() const;

 private:
  static TimeNs EarliestDeadline(const FormedBatch& b);

  std::vector<FormedBatch> backlog_;
  size_t max_backlog_ = 0;
  Histogram service_;
};

}  // namespace gids::serving

#endif  // GIDS_SERVING_SLO_SCHEDULER_H_
