#ifndef GIDS_SERVING_INFERENCE_SERVER_H_
#define GIDS_SERVING_INFERENCE_SERVER_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "graph/csc_graph.h"
#include "graph/feature_store.h"
#include "obs/metric_registry.h"
#include "obs/time_series.h"
#include "sampling/minibatch.h"
#include "sampling/sampler.h"
#include "serving/batch_former.h"
#include "serving/request.h"
#include "serving/request_queue.h"
#include "serving/slo_scheduler.h"
#include "serving/traffic_gen.h"
#include "sim/system_model.h"
#include "storage/fault_injector.h"
#include "storage/feature_gather.h"
#include "storage/page_integrity.h"
#include "storage/software_cache.h"
#include "storage/storage_array.h"

namespace gids::serving {

/// Knobs for the online inference-serving tier (DESIGN.md §14). Defaults
/// keep every offline bench/CLI untouched — nothing outside src/serving
/// reads this struct.
struct ServingOptions {
  /// Admission bound: maximum in-system (admitted, not yet completed)
  /// requests; arrivals beyond it are shed deterministically.
  uint32_t max_queue_depth = 256;
  /// Batch former size cap: a batch closes immediately at this many
  /// member requests.
  uint32_t max_batch_requests = 16;
  /// Batch former window: an open batch closes when its oldest member
  /// has waited this long, full or not.
  TimeNs batch_window_ns = 200 * kNsPerUs;
  /// Concurrent batch executions (independent GPU streams); completions
  /// across lanes retire out of order.
  uint32_t executor_lanes = 2;
  /// Page coalescing spans the requests of a batch (one GatherGroup
  /// scope per batch: popular pages fetched once per window, not once
  /// per user). Off turns coalescing off for that one call, which then
  /// equals the pre-serving per-request path — kept for the equivalence
  /// tests and the bench baseline.
  bool coalesce_across_requests = true;
  /// Feature vector width of the synthetic feature store.
  uint32_t feature_dim = 128;
  /// GPU software-cache capacity in feature pages.
  uint64_t gpu_cache_lines = 512;
  /// Worker threads for intra-batch parallel sampling (the gather is
  /// serial); results are bit-identical across values.
  uint32_t host_threads = 1;
  /// Striped SSD count of the storage array.
  int n_ssd = 1;
  /// --- Fault & integrity injection (FAULTS.md / INTEGRITY.md), same
  /// semantics as the GidsOptions knobs of the same names. Defaults off.
  double fault_rate = 0.0;
  uint64_t fault_seed = 0xfa017;
  double corruption_rate = 0.0;
  bool verify_reads = false;
  /// Root seed (cache eviction stream; sampling streams key off request
  /// ids, so they are independent of this).
  uint64_t seed = 0x5e44e;
  /// Optional metric sink: binds the gids_serving_* series under
  /// {server=<display_name>}. Must outlive the server.
  obs::MetricRegistry* metrics = nullptr;
  /// Optional per-request latency timeline: one IterationSample per
  /// admitted request (end = completion, e2e = arrival-to-completion,
  /// exactly-balanced ledger), recorded in dispatch order — lanes retire
  /// out of order, exercising the TimeSeries out-of-order fold. Must
  /// outlive the server.
  obs::TimeSeries* latency_timeline = nullptr;
  std::string display_name = "serving";
};

/// Aggregate accounting for one serving run. The admission/deadline books
/// balance exactly: offered == admitted + shed, and after the run drains,
/// completed == admitted and on_time + deadline_misses == completed —
/// "zero deadline-accounting drift".
struct ServingRunResult {
  uint64_t offered = 0;
  uint64_t admitted = 0;
  uint64_t shed = 0;
  uint64_t completed = 0;
  uint64_t on_time = 0;
  uint64_t deadline_misses = 0;
  uint64_t batches = 0;
  uint32_t max_queue_depth = 0;
  uint64_t max_backlog = 0;
  /// Gather traffic summed over every executed batch.
  storage::FeatureGatherCounts gather;
  uint64_t storage_array_reads = 0;
  uint64_t dead_letters = 0;
  TimeNs last_completion_ns = 0;
  /// Final service-time estimates (the scheduler's EDF inputs).
  TimeNs p50_service_estimate_ns = 0;
  TimeNs p99_service_estimate_ns = 0;
  Histogram latency_ns;       // per-request arrival -> completion
  Histogram batch_occupancy;  // requests per executed batch
  /// One row per admitted request, in completion (lane-retire) order.
  std::vector<RequestOutcome> outcomes;

  /// Fraction of page demand folded away by coalescing.
  double dedup_ratio() const {
    uint64_t total = gather.total_page_requests();
    return total == 0 ? 0.0
                      : static_cast<double>(gather.coalesced_requests) /
                            static_cast<double>(total);
  }
};

/// The request-driven front end over the GIDS gather stack: admission
/// control (RequestQueue) -> batch forming (BatchFormer) -> SLO-aware
/// dispatch (SloScheduler) -> batched sampling + feature gather on
/// `executor_lanes` concurrent lanes, simulated as a deterministic
/// single-threaded event loop in virtual time (arrivals, batch-window
/// expiries, and lane completions are heap-ordered by (time, sequence)).
///
/// Execution model per batch: every member request samples its own
/// mini-batch from its id-keyed RNG stream (parallel across requests on
/// the host pool when the sampler is concurrent-safe), then all input
/// nodes gather as one GatherGroup scope, so page coalescing spans the
/// batch's requests. storage::CostGather, shared with the offline
/// loader, times that call as one kernel; service time is
///   max(aggregation + the gather's retry penalty, sum of sampling) +
///   sum of per-request GNN compute,
/// mirroring the loader's overlap model. Worker threads only sample
/// inside a batch, and the gather is one serial pass, so the whole run is
/// reproducible across host_threads.
class InferenceServer {
 public:
  InferenceServer(const graph::CscGraph* graph, sampling::Sampler* sampler,
                  ServingOptions options);

  const ServingOptions& options() const { return options_; }
  const graph::FeatureStore& features() const { return fs_; }
  const SloScheduler& scheduler() const { return sched_; }

  /// Drives `num_requests` arrivals from `traffic` through the tier and
  /// drains every admitted request. One run per server instance.
  ServingRunResult Run(TrafficGenerator& traffic, uint64_t num_requests);

 private:
  struct Event {
    TimeNs t = 0;
    uint64_t seq = 0;  // insertion order; total order with t
    enum Kind { kArrival, kWindow, kLaneFree } kind = kArrival;
    uint64_t payload = 0;  // window: generation; lane-free: completion slot
    bool operator>(const Event& o) const {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };
  /// Everything decided at dispatch, delivered at the lane-free event.
  struct ExecutedBatch {
    TimeNs completion_ns = 0;
    std::vector<RequestOutcome> outcomes;
  };

  void Push(TimeNs t, Event::Kind kind, uint64_t payload);
  void OnBatchClosed(FormedBatch batch, TimeNs now);
  void TryDispatch(TimeNs now);
  /// Samples + gathers + times one batch; returns its service time and
  /// fills the pending ExecutedBatch slot.
  TimeNs ExecuteBatch(const FormedBatch& batch, TimeNs now,
                      ExecutedBatch* done);
  void RecordRequestSample(const Request& r, TimeNs completion_ns,
                           const storage::FeatureGatherCounts& counts,
                           const obs::IterationLedger& ledger);

  ServingOptions options_;
  const graph::CscGraph* graph_;
  sampling::Sampler* sampler_;
  sim::SystemModel system_;
  graph::FeatureStore fs_;
  std::unique_ptr<storage::StorageArray> array_;
  std::unique_ptr<storage::SoftwareCache> cache_;
  std::unique_ptr<ThreadPool> pool_;
  std::unique_ptr<storage::FeatureGatherer> gatherer_;

  RequestQueue queue_;
  BatchFormer former_;
  SloScheduler sched_;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  uint64_t next_seq_ = 0;
  uint32_t busy_lanes_ = 0;
  std::vector<ExecutedBatch> completions_;  // slot = LaneFree payload
  std::vector<uint64_t> free_slots_;

  // Batch execution scratch, reused across batches.
  std::vector<sampling::MiniBatch> mb_scratch_;
  std::vector<TimeNs> sampling_ns_scratch_;
  std::vector<TimeNs> train_ns_scratch_;
  std::vector<storage::GatherSlice> slice_scratch_;
  std::vector<storage::FeatureGatherCounts> counts_scratch_;

  ServingRunResult result_;
  bool ran_ = false;

  // Metric handles (null without options_.metrics).
  obs::Counter* m_requests_ = nullptr;
  obs::Counter* m_shed_ = nullptr;
  obs::Counter* m_completed_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_batches_ = nullptr;
  obs::Gauge* m_queue_depth_ = nullptr;
  obs::Gauge* m_dedup_ = nullptr;
  obs::HistogramMetric* m_occupancy_ = nullptr;
};

}  // namespace gids::serving

#endif  // GIDS_SERVING_INFERENCE_SERVER_H_
