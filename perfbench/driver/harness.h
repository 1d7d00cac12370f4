// Measurement plumbing shared by every workload: the reference loop that
// cancels host drift, the segmented host-time meter, the determinism
// fingerprint, and the result record a run prints.
#ifndef PERFBENCH_DRIVER_HARNESS_H_
#define PERFBENCH_DRIVER_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "loaders/dataloader.h"
#include "serving/request.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// A fixed, program-independent unit of host work whose wall time tracks
/// the machine's momentary speed for the kind of work a workload does, so
/// a measured segment scaled by nominal_ms() / measured is comparable
/// across runs and commits. It calls nothing in the simulator, so every
/// commit runs the same loop. Each workload uses the kind that tracked it
/// best when measured (README.md).
class RefLoop {
 public:
  enum class Kind {
    /// 2^17 xorshift random reads over a 32 MiB table, then 2^16 inserts
    /// into a freshly allocated hash map: shared-cache and allocator
    /// bound, like the training loops.
    kRandomTable,
    /// 1024 freshly allocated 64-word blocks summed 48 times, then 2^15
    /// hash-map inserts: small-block, L2-resident work, like the serving
    /// scheduler's per-window histogram merge.
    kSmallBlocks,
  };

  explicit RefLoop(Kind kind);
  /// Typical wall time of one RunMs() on this VM; it only fixes the unit
  /// of the scaled throughput.
  double nominal_ms() const {
    return kind_ == Kind::kRandomTable ? 8.0 : 6.0;
  }
  /// Runs the fixed work once and returns its wall time in ms.
  double RunMs();

 private:
  Kind kind_;
  std::vector<uint64_t> table_;
  uint64_t sink_ = 0;
};

/// Splits a measured phase into segments of about `segment_s` seconds and
/// times the reference loop between them (once per segment_s of measured
/// time, median taken). Each segment's wall time is scaled by the loop's
/// nominal time over the mean of the reference timings on either side;
/// ops_per_s() divides the ops by the scaled total.
class HostMeter {
 public:
  HostMeter(RefLoop* ref, double segment_s);

  /// Starts a segment. The reference timing that closed the previous
  /// segment serves as this one's leading timing.
  void Open();
  /// Ends the open segment and times the reference loop after it.
  void Close();
  void Count(uint64_t ops) { open_ops_ += ops; }
  /// True once the open segment has run for segment_s.
  bool SegmentDue() const;

  uint64_t ops() const { return ops_; }

  double ops_per_s() const;      // reference-scaled
  double raw_ops_per_s() const;  // ops / unscaled segment wall time
  double measured_s() const;     // unscaled segment wall time
  const std::vector<double>& ref_ms() const { return ref_ms_; }
  /// The diagnostic lines printed beside ops_per_s: ops, measured time,
  /// raw and scaled rates, reference timings, per-segment rate spread.
  std::vector<std::string> Notes() const;

 private:
  RefLoop* ref_;
  double segment_s_;
  bool started_ = false;
  Clock::time_point open_at_;
  double last_ref_ms_ = 0;
  uint64_t open_ops_ = 0;
  uint64_t ops_ = 0;
  double wall_s_ = 0;
  double scaled_s_ = 0;
  std::vector<double> ref_ms_;
  std::vector<double> raw_rates_;
  std::vector<double> scaled_rates_;

  /// Median of `samples` reference-loop timings (all kept in ref_ms_).
  double TimeRef(int samples);
  static double Cv(const std::vector<double>& v);
};

/// FNV-1a over everything a run produces in virtual time, folded one
/// 64-bit word per step (not per byte) so hashing stays cheap beside the
/// ops it covers. Any divergence — sampling, ordering, cache behaviour,
/// serve outcomes — lands in the hash.
class Fingerprint {
 public:
  void Mix(uint64_t v);
  void MixBatch(const gids::loaders::LoaderBatch& lb);
  void MixOutcome(const gids::serving::RequestOutcome& o);
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `e2e` holds the untraced end-to-end
/// metrics, `layers` the traced per-layer metrics; `notes` are the
/// diagnostic lines printed ahead of the result.
struct RunResult {
  std::vector<std::string> violations;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t fingerprint = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layers;
  std::vector<std::string> notes;

  bool correct() const { return violations.empty(); }
  void Violation(std::string what) { violations.push_back(std::move(what)); }
  void Note(std::string line) { notes.push_back(std::move(line)); }
  void E2e(const std::string& name, double value, const std::string& unit) {
    e2e.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    layers.push_back({name, value, unit});
  }
  /// Value of a metric in `e2e` then `layers`; NaN when absent.
  double Find(const std::string& name) const;
};

/// Options every workload honours.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace path for traced runs ("" = none)
  /// Untraced runs repeat the setup at least `setups` times and until
  /// `setup_seconds` have gone into setups (at most 9 times); setup_s is
  /// the median, so short setups get more samples. Traced runs set up once.
  int setups = 3;
  double setup_seconds = 3.0;
  bool tiny = false;      // self-test sizes
  /// Overrides (self-test replays): 0 / false keep the workload's value.
  uint32_t host_threads = 0;
  bool no_crash = false;
};

/// True while `cfg` asks for another setup after the ones timed in `done`.
bool MoreSetups(const RunConfig& cfg, const std::vector<double>& done);

/// Peak (VmHWM) and current (VmRSS) resident set size of this process.
double PeakRssMb();
double CurrentRssMb();

/// Nearest-rank percentile of `v` (sorted in place), p in [0, 1].
double Percentile(std::vector<double>& v, double p);
double Median(std::vector<double> v);

std::string Hex(uint64_t v);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_HARNESS_H_
