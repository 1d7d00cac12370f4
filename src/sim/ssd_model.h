#ifndef GIDS_SIM_SSD_MODEL_H_
#define GIDS_SIM_SSD_MODEL_H_

#include <cstdint>
#include <string>

#include "common/random.h"
#include "common/units.h"

namespace gids::sim {

/// Parameters of one NVMe SSD, as measured by the paper (§4.2): 4 KiB IO
/// granularity, per-request read latency, and peak random-read IOPs.
///
/// The device is modeled as `internal_parallelism()` independent service
/// channels, each completing one request per `read_latency_ns`. This makes
/// the sustained throughput k / L = peak IOPs while reproducing the key
/// property the GIDS accumulator exploits: bandwidth collapses when fewer
/// than ~k requests are kept in flight.
struct SsdSpec {
  std::string name;
  double peak_read_iops = 0;      // at io_size_bytes granularity
  TimeNs read_latency_ns = 0;     // per-request latency seen by the host
  uint32_t io_size_bytes = 4096;  // cache-line / page granularity
  uint64_t capacity_bytes = 2ull * 1024 * 1024 * 1024 * 1024;
  /// Relative std-dev of the per-request service time (the paper notes
  /// "high variance in latency"); sampled lognormally.
  double latency_sigma = 0.25;

  /// Number of requests the device can usefully overlap: k = IOPs * latency.
  uint64_t internal_parallelism() const;
  /// Peak sequential-equivalent read bandwidth in bytes/second.
  double peak_read_bandwidth_bps() const {
    return peak_read_iops * static_cast<double>(io_size_bytes);
  }

  /// Intel Optane SSD (PCIe Gen4): 11 us latency, 1.5 M IOPs @ 4 KiB.
  static SsdSpec IntelOptane();
  /// Samsung 980 Pro (NAND flash): 324 us latency, 700 K IOPs @ 4 KiB.
  static SsdSpec Samsung980Pro();
};

/// Result of simulating a batch of reads against one or more SSDs.
struct SsdBatchResult {
  TimeNs duration_ns = 0;        // submission of first to completion of last
  uint64_t requests = 0;         // total requests serviced
  double achieved_iops = 0;      // aggregate across all simulated SSDs
  double bandwidth_bps = 0;      // aggregate bytes/second
};

/// Discrete-event model of a single NVMe SSD's read path.
///
/// Two request-arrival disciplines are provided, matching how the paper's
/// microbenchmarks and dataloaders drive the device:
///  - `SimulateBurst`:     N requests all submitted at t = 0 (one GPU kernel
///                          with N threads, Fig. 8's measured curve).
///  - `SimulateClosedLoop`: at most Q requests kept outstanding; a new
///                          request is submitted whenever one completes
///                          (the accumulator's steady state, Fig. 9).
///
/// Both are exact event-driven simulations over a min-heap of channel
/// free-times with lognormal service-time jitter, not closed forms.
class SsdModel {
 public:
  explicit SsdModel(SsdSpec spec, uint64_t seed = 0x55d0);

  const SsdSpec& spec() const { return spec_; }

  /// Simulates `n` reads submitted simultaneously at t = 0.
  SsdBatchResult SimulateBurst(uint64_t n);

  /// Simulates `n` reads with a closed-loop window of `concurrency`
  /// outstanding requests.
  SsdBatchResult SimulateClosedLoop(uint64_t n, uint64_t concurrency);

 private:
  TimeNs SampleServiceTime();

  SsdSpec spec_;
  Rng rng_;
};

/// Simulates `n` reads striped round-robin over `n_ssd` identical devices,
/// with the closed-loop window `concurrency` distributed across devices
/// like the request share (the first `concurrency % n_ssd` devices carry
/// one extra outstanding request). When `concurrency < n_ssd` only
/// `concurrency` devices are active — fewer outstanding requests than
/// devices cannot keep every device busy. Returns the aggregate result
/// (duration = slowest device).
SsdBatchResult SimulateStripedClosedLoop(const SsdSpec& spec, int n_ssd,
                                         uint64_t n, uint64_t concurrency,
                                         uint64_t seed = 0x57717e);

}  // namespace gids::sim

#endif  // GIDS_SIM_SSD_MODEL_H_
