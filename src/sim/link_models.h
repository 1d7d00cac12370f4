#ifndef GIDS_SIM_LINK_MODELS_H_
#define GIDS_SIM_LINK_MODELS_H_

#include <cstdint>
#include <string>

#include "common/units.h"

namespace gids::sim {

/// A bandwidth-bound interconnect or memory channel (PCIe link, DDR4 DRAM,
/// HBM2). Transfers are charged bytes / bandwidth plus a base latency.
class LinkModel {
 public:
  LinkModel(std::string name, double bandwidth_bps, TimeNs base_latency_ns)
      : name_(std::move(name)),
        bandwidth_bps_(bandwidth_bps),
        base_latency_ns_(base_latency_ns) {}

  const std::string& name() const { return name_; }
  double bandwidth_bps() const { return bandwidth_bps_; }
  TimeNs base_latency_ns() const { return base_latency_ns_; }

  /// Time to move `bytes` across the link at full utilization.
  TimeNs TransferTime(uint64_t bytes) const {
    return base_latency_ns_ +
           SecToNs(static_cast<double>(bytes) / bandwidth_bps_);
  }

  /// PCIe Gen4 x16: ~32 GB/s per direction (Table 1 / §3.3).
  static LinkModel PcieGen4x16() {
    return LinkModel("PCIe Gen4 x16", 32e9, 700);
  }
  /// EPYC 7702 8-channel DDR4-3200 aggregate.
  static LinkModel Ddr4Epyc() { return LinkModel("DDR4", 190e9, 90); }
  /// A100-40GB HBM2 (Table 1: 1555 GB/s).
  static LinkModel HbmA100() { return LinkModel("HBM2", 1555e9, 350); }

 private:
  std::string name_;
  double bandwidth_bps_;
  TimeNs base_latency_ns_;
};

}  // namespace gids::sim

#endif  // GIDS_SIM_LINK_MODELS_H_
