#include "sim/cpu_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "sim/analytic.h"

namespace gids::sim {

double CpuModel::PrepRequestRate(int threads) const {
  GIDS_CHECK(threads > 0);
  int effective = std::min(threads, spec_.prep_thread_plateau);
  return spec_.prep_rate_per_thread * static_cast<double>(effective);
}

double CpuModel::EdgeCostNs(uint64_t structure_bytes) const {
  double miss_prob = 0.0;
  if (structure_bytes > spec_.effective_llc_bytes) {
    miss_prob = 1.0 - static_cast<double>(spec_.effective_llc_bytes) /
                          static_cast<double>(structure_bytes);
  }
  double per_thread = static_cast<double>(spec_.edge_sample_base_ns) +
                      miss_prob * static_cast<double>(spec_.edge_sample_miss_ns);
  return per_thread / static_cast<double>(std::max(1, spec_.sampler_threads));
}

TimeNs CpuModel::SamplingTime(uint64_t edges_traversed,
                              uint64_t structure_bytes) const {
  double ns = EdgeCostNs(structure_bytes) * static_cast<double>(edges_traversed);
  return static_cast<TimeNs>(std::llround(ns));
}

TimeNs CpuModel::MmapGatherTime(uint64_t copy_bytes, uint64_t faulting_pages,
                                const SsdSpec& ssd) const {
  // Gathered rows are copied out of the page cache at the single-threaded
  // fancy-index rate (the gather loop in the DGL/numpy baseline is serial).
  double hit_secs = static_cast<double>(copy_bytes) / spec_.dram_gather_bps;
  // Faults: each one traps, runs the OS fault path, then waits for the
  // device read. Faults from distinct gather threads can overlap up to
  // mmap_fault_concurrency (1 for the numpy fancy-indexing gather).
  double fault_each =
      NsToSec(spec_.page_fault_software_ns + ssd.read_latency_ns);
  double fault_secs = static_cast<double>(faulting_pages) * fault_each /
                      static_cast<double>(std::max(1, spec_.mmap_fault_concurrency));
  return SecToNs(hit_secs + fault_secs);
}

TimeNs CpuModel::AsyncReadTime(uint64_t pages, const SsdSpec& ssd,
                               uint64_t qd) const {
  if (pages == 0) return 0;
  SsdBatchResult r = EstimateClosedLoop(ssd, /*n_ssd=*/1, pages, qd);
  // Submission/completion software cost per IO on the CPU path.
  TimeNs sw = static_cast<TimeNs>(pages) * 2000;
  return r.duration_ns + sw;
}

}  // namespace gids::sim
