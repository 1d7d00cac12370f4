#ifndef GIDS_SIM_SYSTEM_MODEL_H_
#define GIDS_SIM_SYSTEM_MODEL_H_

#include <cstdint>
#include <string>

#include "common/units.h"
#include "sim/cpu_model.h"
#include "sim/gpu_model.h"
#include "sim/link_models.h"
#include "sim/ssd_model.h"

namespace gids::sim {

/// Full-system configuration mirroring the paper's Table 1 testbed: one
/// A100-40GB, an EPYC host with (lockable) DDR4, PCIe Gen4, and one or more
/// NVMe SSDs.
///
/// `memory_scale` supports the dataset-proxy scaling rule from DESIGN.md:
/// when experiments run on a 1/S-scale proxy of a terabyte dataset, CPU and
/// GPU memory capacities are scaled by the same 1/S so the
/// fits-in-memory / exceeds-memory boundary is preserved.
struct SystemConfig {
  CpuSpec cpu = CpuSpec::EpycServer();
  GpuSpec gpu = GpuSpec::A100_40GB();
  SsdSpec ssd = SsdSpec::IntelOptane();
  int n_ssd = 1;

  /// Unscaled capacities (the paper locks 1 TB down to 512 GB for the
  /// large-graph evaluations and uses an 8 GB GPU software cache).
  uint64_t cpu_memory_bytes = 512ull * 1024 * 1024 * 1024;
  uint64_t gpu_cache_bytes = 8ull * 1024 * 1024 * 1024;

  double memory_scale = 1.0;

  /// Fraction of SSD enqueue capability lost per unit of CPU-buffer
  /// redirect share (§4.3: GPU threads copying from the CPU buffer cannot
  /// simultaneously enqueue storage accesses).
  double redirect_interference = 0.15;

  uint64_t scaled_cpu_memory_bytes() const {
    return static_cast<uint64_t>(static_cast<double>(cpu_memory_bytes) *
                                 memory_scale);
  }
  uint64_t scaled_gpu_cache_bytes() const {
    return static_cast<uint64_t>(static_cast<double>(gpu_cache_bytes) *
                                 memory_scale);
  }

  /// Table 1 defaults with the given SSD model.
  static SystemConfig Paper(SsdSpec ssd_spec, int n_ssd = 1);
};

/// Bundles the device models for one experiment run.
class SystemModel {
 public:
  explicit SystemModel(SystemConfig config);

  const SystemConfig& config() const { return config_; }
  const CpuModel& cpu() const { return cpu_; }
  const GpuModel& gpu() const { return gpu_; }
  const LinkModel& pcie() const { return pcie_; }
  const LinkModel& dram() const { return dram_; }
  const LinkModel& hbm() const { return hbm_; }

  /// Aggregate peak read bandwidth of the SSD array, bytes/sec.
  double ssd_array_peak_bps() const {
    return config_.ssd.peak_read_bandwidth_bps() *
           static_cast<double>(config_.n_ssd);
  }

 private:
  SystemConfig config_;
  CpuModel cpu_;
  GpuModel gpu_;
  LinkModel pcie_;
  LinkModel dram_;
  LinkModel hbm_;
};

}  // namespace gids::sim

#endif  // GIDS_SIM_SYSTEM_MODEL_H_
