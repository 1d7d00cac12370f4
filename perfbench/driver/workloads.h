// The four benchmark workloads and the per-layer metric sheet they share.
#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "driver/harness.h"
#include "driver/trace.h"
#include "obs/ledger.h"

namespace perfbench {

RunResult RunTrainPaper(const RunConfig& cfg);
RunResult RunTrainParallel(const RunConfig& cfg);
RunResult RunMutateFailover(const RunConfig& cfg);
RunResult RunServeZipf(const RunConfig& cfg);

/// Length of one measured segment between reference-loop timings.
inline constexpr double kSegmentSeconds = 0.3;

/// Every per-layer metric, in print order. A traced run of any workload
/// prints all of them; a layer the workload does not reach reads 0.
struct LayerSheet {
  double graph_build_s = 0;
  double core_init_s = 0;
  double core_warmup_s = 0;
  double sampling_busy_ms_per_op = 0;
  double sampling_concurrency = 0;
  double sampling_edges_per_op = 0;
  double sampling_input_nodes_per_op = 0;
  double core_self_ms_per_op = 0;
  double core_prep_ms_per_group = 0;
  double core_handoff_ms_p50 = 0;
  double core_handoff_ms_p99 = 0;
  double core_iters_per_group = 0;
  double page_requests_per_op = 0;
  double serviced_per_op = 0;
  double ssd_reads_per_op = 0;
  double cpu_buffer_share = 0;
  double cache_hit_ratio = 0;
  double dedup_ratio = 0;
  double evictions_per_op = 0;
  double probe_skips_per_op = 0;
  double bypasses = 0;
  double retries = 0;
  double timeouts = 0;
  double dead_letters = 0;
  double crc_mismatches = 0;
  double repairs = 0;
  double failovers = 0;
  double retry_ratio = 0;
  double journal_records = 0;
  double journal_bytes = 0;
  double write_amp = 0;
  double mutations_applied = 0;
  double ledger_ms[gids::obs::IterationLedger::kNumComponents] = {};
  double pool_tasks = 0;
  double pool_chunks = 0;
  double ws_allocs = 0;
  double ws_hit_ratio = 0;
  double serving_self_ms_per_op = 0;
  double serving_batches = 0;
  double serving_occupancy = 0;
  double serving_max_backlog = 0;
  double serving_shed = 0;
  double serving_deadline_misses = 0;
  double serving_dedup_ratio = 0;
  double raw_ops_per_s = 0;
  double ref_ms_p50 = 0;
  double ref_ms_spread = 0;
  double rss_growth_mb_per_kop = 0;
  double trace_overhead = 0;
  double trace_coverage = 0;

  void EmitTo(RunResult* out) const;
};

/// Fills the host.* rows of `sheet` from the reference timings of every
/// meter the run used.
void FillHostRows(const std::vector<const HostMeter*>& meters,
                  LayerSheet* sheet);

/// Closes a traced run: fills the span-derived sampling rows and the
/// trace coverage of `traced`'s measured phase, checks that the op spans
/// cover at least 95% of it, and writes the Chrome trace. Returns the
/// span totals so the caller can derive its layer's self time.
SpanTotals FinishTrace(const SpanLog& log, const char* op_name,
                       const HostMeter& traced, const RunConfig& cfg,
                       LayerSheet* sheet, RunResult* out);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
