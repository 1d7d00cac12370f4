#ifndef GIDS_SIM_CPU_MODEL_H_
#define GIDS_SIM_CPU_MODEL_H_

#include <cstdint>

#include "common/units.h"
#include "sim/ssd_model.h"

namespace gids::sim {

/// Host-CPU execution model (AMD EPYC 7702-class, Table 1), calibrated to
/// the paper's measurements:
///  - Fig. 3: the CPU data-preparation stages generate at most ~4.1 M
///    feature-vector requests/s, plateauing at 16 threads.
///  - Fig. 7: CPU graph sampling slows as the structure outgrows the
///    effective last-level cache (EPYC L3 is CCX-partitioned, so the
///    effective random-access LLC per sampler is far below the nominal
///    256 MB).
///  - §2.3: memory-mapped feature access page-faults synchronously; the
///    fault path (trap + OS handling + device read) is serialized per
///    gather thread.
struct CpuSpec {
  int num_cores = 64;
  int sampler_threads = 16;           // paper: rate plateaus at 16 threads
  double prep_rate_per_thread = 256e3;  // feature requests/s (Fig. 3)
  int prep_thread_plateau = 16;

  TimeNs edge_sample_base_ns = 70;    // per edge, per thread, in-cache
  TimeNs edge_sample_miss_ns = 260;   // extra DRAM-latency cost on LLC miss
  uint64_t effective_llc_bytes = 32ull * 1024 * 1024;

  TimeNs page_fault_software_ns = UsToNs(10);  // trap + OS page-fault path
  int mmap_fault_concurrency = 1;     // numpy-memmap gather is serial
  /// Single-threaded fancy-index gather rate out of the page cache
  /// (NumPy-style row gather, not a bulk memcpy).
  double dram_gather_bps = 10e9;

  static CpuSpec EpycServer() { return CpuSpec{}; }
};

/// Timing functions derived from CpuSpec.
class CpuModel {
 public:
  explicit CpuModel(CpuSpec spec) : spec_(spec) {}
  const CpuSpec& spec() const { return spec_; }

  /// Feature-vector request generation rate of the CPU data-preparation
  /// stages with `threads` workers (Fig. 3 series).
  double PrepRequestRate(int threads) const;

  /// Time for the CPU sampler to traverse `edges_traversed` edges of a
  /// graph whose structure occupies `structure_bytes`, using
  /// `spec.sampler_threads` workers (Fig. 7 CPU series).
  TimeNs SamplingTime(uint64_t edges_traversed,
                      uint64_t structure_bytes) const;

  /// Per-edge aggregate cost (all threads combined) for the same model.
  double EdgeCostNs(uint64_t structure_bytes) const;

  /// Time for the mmap-based gather path: `copy_bytes` of feature data
  /// copied out of the page cache plus `faulting_pages` synchronous page
  /// faults against `ssd` (the DGL-mmap baseline's aggregation stage).
  TimeNs MmapGatherTime(uint64_t copy_bytes, uint64_t faulting_pages,
                        const SsdSpec& ssd) const;

  /// Time for a CPU-initiated asynchronous read path with queue depth `qd`
  /// (Ginex-style pipelined reads via e.g. io_uring / async workers).
  TimeNs AsyncReadTime(uint64_t pages, const SsdSpec& ssd, uint64_t qd) const;

 private:
  CpuSpec spec_;
};

}  // namespace gids::sim

#endif  // GIDS_SIM_CPU_MODEL_H_
