#include "driver/workloads.h"

#include <cstdio>

namespace perfbench {

void LayerSheet::EmitTo(RunResult* out) const {
  auto add = [out](const char* name, double v, const char* unit) {
    out->Layer(name, v, unit);
  };
  add("graph.build_s", graph_build_s, "s");
  add("core.init_s", core_init_s, "s");
  add("core.warmup_s", core_warmup_s, "s");
  add("sampling.busy_ms_per_op", sampling_busy_ms_per_op, "ms");
  add("sampling.concurrency", sampling_concurrency, "ratio");
  add("sampling.edges_per_op", sampling_edges_per_op, "count");
  add("sampling.input_nodes_per_op", sampling_input_nodes_per_op, "count");
  add("core.self_ms_per_op", core_self_ms_per_op, "ms");
  add("core.prep_ms_per_group", core_prep_ms_per_group, "ms");
  add("core.handoff_ms_p50", core_handoff_ms_p50, "ms");
  add("core.handoff_ms_p99", core_handoff_ms_p99, "ms");
  add("core.iters_per_group", core_iters_per_group, "count");
  add("storage.page_requests_per_op", page_requests_per_op, "count");
  add("storage.serviced_per_op", serviced_per_op, "count");
  add("storage.ssd_reads_per_op", ssd_reads_per_op, "count");
  add("storage.cpu_buffer_share", cpu_buffer_share, "ratio");
  add("storage.cache_hit_ratio", cache_hit_ratio, "ratio");
  add("storage.dedup_ratio", dedup_ratio, "ratio");
  add("storage.evictions_per_op", evictions_per_op, "count");
  add("storage.probe_skips_per_op", probe_skips_per_op, "count");
  add("storage.bypasses", bypasses, "count");
  add("storage.retries", retries, "count");
  add("storage.timeouts", timeouts, "count");
  add("storage.dead_letters", dead_letters, "count");
  add("storage.crc_mismatches", crc_mismatches, "count");
  add("storage.repairs", repairs, "count");
  add("storage.failovers", failovers, "count");
  add("storage.retry_ratio", retry_ratio, "ratio");
  add("storage.journal_records", journal_records, "count");
  add("storage.journal_bytes", journal_bytes, "bytes");
  add("storage.write_amp", write_amp, "ratio");
  add("core.mutations_applied", mutations_applied, "count");
  for (int i = 0; i < gids::obs::IterationLedger::kNumComponents; ++i) {
    out->Layer(std::string("sim.ledger.") +
                   gids::obs::IterationLedger::ComponentName(i) + "_ms",
               ledger_ms[i], "virtual_ms");
  }
  add("common.pool_tasks", pool_tasks, "count");
  add("common.pool_chunks", pool_chunks, "count");
  add("common.ws_allocs", ws_allocs, "count");
  add("common.ws_hit_ratio", ws_hit_ratio, "ratio");
  add("serving.self_ms_per_op", serving_self_ms_per_op, "ms");
  add("serving.batches", serving_batches, "count");
  add("serving.occupancy", serving_occupancy, "count");
  add("serving.max_backlog", serving_max_backlog, "count");
  add("serving.shed", serving_shed, "count");
  add("serving.deadline_misses", serving_deadline_misses, "count");
  add("serving.dedup_ratio", serving_dedup_ratio, "ratio");
  add("host.raw_ops_per_s", raw_ops_per_s, "1/s");
  add("host.ref_ms_p50", ref_ms_p50, "ms");
  add("host.ref_ms_spread", ref_ms_spread, "ratio");
  add("host.rss_growth_mb_per_kop", rss_growth_mb_per_kop, "MB");
  add("trace.overhead", trace_overhead, "ratio");
  add("trace.coverage", trace_coverage, "ratio");
}

void FillHostRows(const std::vector<const HostMeter*>& meters,
                  LayerSheet* sheet) {
  std::vector<double> refs;
  for (const HostMeter* m : meters) {
    refs.insert(refs.end(), m->ref_ms().begin(), m->ref_ms().end());
  }
  const double p50 = Percentile(refs, 0.5);
  sheet->ref_ms_p50 = p50;
  sheet->ref_ms_spread =
      p50 > 0 ? (Percentile(refs, 0.75) - Percentile(refs, 0.25)) / p50 : 0;
}

SpanTotals FinishTrace(const SpanLog& log, const char* op_name,
                       const HostMeter& traced, const RunConfig& cfg,
                       LayerSheet* sheet, RunResult* out) {
  const std::vector<Span> spans = log.Collect();
  SpanTotals t = SumOpSpans(spans, op_name);
  const double ops = static_cast<double>(traced.ops());
  const double measured_ms = traced.measured_s() * 1e3;
  if (ops > 0) {
    sheet->sampling_busy_ms_per_op = t.sampler_ms / ops;
    sheet->sampling_edges_per_op = static_cast<double>(t.edges) / ops;
    sheet->sampling_input_nodes_per_op = static_cast<double>(t.inputs) / ops;
  }
  if (measured_ms > 0) {
    sheet->sampling_concurrency = t.sampler_ms / measured_ms;
    sheet->trace_coverage = t.op_ms / measured_ms;
  }
  if (sheet->trace_coverage < 0.95) {
    out->Violation("op spans cover only " +
                   std::to_string(sheet->trace_coverage) +
                   " of the traced measured phase (< 0.95)");
  }
  char line[160];
  std::snprintf(line, sizeof(line),
                "trace: %zu spans, %s spans cover %.4f of %.1f ms measured",
                spans.size(), op_name, sheet->trace_coverage, measured_ms);
  out->Note(line);
  if (!cfg.trace_out.empty()) {
    if (log.WriteChromeJson(cfg.trace_out)) {
      out->Note("trace: wrote " + cfg.trace_out);
    } else {
      out->Violation("cannot write trace " + cfg.trace_out);
    }
  }
  return t;
}

}  // namespace perfbench
