#include "sim/aggregation_model.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "sim/analytic.h"

namespace gids::sim {

AggregationTiming ComputeAggregationTiming(const SystemModel& system,
                                           const AggregationCounts& counts) {
  AggregationTiming t;
  const SystemConfig& cfg = system.config();
  const uint64_t total = counts.total_requests();
  if (total == 0) return t;

  const uint64_t page = counts.page_bytes;
  const uint64_t ssd_bytes = counts.ssd_reads * page;
  const uint64_t cpu_bytes = counts.cpu_buffer_hits * page;
  const uint64_t hbm_bytes = counts.gpu_cache_hits * page;
  t.pcie_ingress_bytes = ssd_bytes + cpu_bytes;
  t.feature_bytes = ssd_bytes + cpu_bytes + hbm_bytes;

  // --- Storage path. The share of the in-flight window that targets the
  // SSDs shrinks when accesses are redirected (cache/CPU-buffer hits), and
  // warps busy copying CPU-buffer data cannot enqueue storage requests.
  TimeNs launch_overhead =
      cfg.gpu.kernel_launch_ns + cfg.gpu.kernel_termination_ns;
  if (counts.ssd_reads > 0) {
    double ssd_share = static_cast<double>(counts.ssd_reads) /
                       static_cast<double>(total);
    double cpu_share = static_cast<double>(counts.cpu_buffer_hits) /
                       static_cast<double>(total);
    uint64_t outstanding = std::max<uint64_t>(counts.outstanding_accesses, 1);
    double window = static_cast<double>(outstanding) * ssd_share *
                    (1.0 - cfg.redirect_interference * cpu_share);
    uint64_t ssd_window = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::llround(window)));
    // The closed-loop duration does not depend on ssd.io_size_bytes.
    SsdBatchResult ssd =
        EstimateClosedLoop(cfg.ssd, cfg.n_ssd, counts.ssd_reads, ssd_window);
    t.ssd_ns = launch_overhead + ssd.duration_ns;
  } else {
    t.ssd_ns = launch_overhead;
  }

  // --- Shared-link floors.
  t.pcie_floor_ns = t.pcie_ingress_bytes > 0
                        ? system.pcie().TransferTime(t.pcie_ingress_bytes)
                        : 0;
  t.hbm_ns = hbm_bytes > 0 ? system.hbm().TransferTime(hbm_bytes) : 0;
  t.dram_ns = cpu_bytes > 0 ? system.dram().TransferTime(cpu_bytes) : 0;

  t.total_ns = std::max({t.ssd_ns, t.pcie_floor_ns, t.hbm_ns, t.dram_ns,
                         static_cast<TimeNs>(1)});

  double secs = NsToSec(t.total_ns);
  t.ssd_bandwidth_bps = static_cast<double>(ssd_bytes) / secs;
  t.pcie_ingress_bps = static_cast<double>(t.pcie_ingress_bytes) / secs;
  t.effective_bandwidth_bps = static_cast<double>(t.feature_bytes) / secs;
  return t;
}

}  // namespace gids::sim
