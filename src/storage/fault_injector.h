#ifndef GIDS_STORAGE_FAULT_INJECTOR_H_
#define GIDS_STORAGE_FAULT_INJECTOR_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/random.h"
#include "common/units.h"

namespace gids::storage {

/// Bounded-retry policy for storage reads, expressed entirely in the
/// simulator's virtual clock (see FAULTS.md). A read is attempted up to
/// `max_retries + 1` times; between failed attempt k and attempt k + 1 the
/// issuing thread backs off for BackoffNs(k) virtual nanoseconds
/// (exponential, capped). An attempt whose (modeled) service time reaches
/// `timeout_ns` counts as a timeout.
struct RetryPolicy {
  uint32_t max_retries = 4;
  TimeNs backoff_initial_ns = 20 * kNsPerUs;  // first backoff (doubles)
  TimeNs backoff_cap_ns = 2 * kNsPerMs;       // backoff ceiling
  TimeNs timeout_ns = 1 * kNsPerMs;           // per-attempt command timeout

  /// Backoff after failed attempt `attempt` (0-based):
  /// min(backoff_initial_ns << attempt, backoff_cap_ns). Deterministic, so
  /// retry timestamps are reproducible in virtual time.
  TimeNs BackoffNs(uint32_t attempt) const {
    TimeNs b = backoff_initial_ns;
    for (uint32_t i = 0; i < attempt && b < backoff_cap_ns; ++i) b *= 2;
    return b < backoff_cap_ns ? b : backoff_cap_ns;
  }
};

/// Knobs of the deterministic storage fault model (FAULTS.md). All
/// probabilities are per *attempt*; decisions are pure functions of
/// (seed, page, attempt), never of wall-clock state or call order, so two
/// runs with the same seed — at any host thread count — inject exactly the
/// same faults.
struct FaultOptions {
  /// Probability that an attempt fails with a transient command error.
  double fault_rate = 0.0;
  /// Seed of the fault stream. Decorrelated from every other RNG stream in
  /// the library (graph generation, sampling, eviction).
  uint64_t fault_seed = 0xfa017;
  /// Probability that an attempt is served slowly: `latency_spike_ns` is
  /// added to the modeled service time. A spiked attempt whose total
  /// service time reaches the retry policy's timeout is a timeout.
  double latency_spike_rate = 0.0;
  TimeNs latency_spike_ns = 500 * kNsPerUs;
  /// Probability that an attempt's submission queue stalls: the command is
  /// never completed and the issuer charges a full timeout before retrying.
  double stuck_queue_rate = 0.0;
  /// Offline striped device indices (set semantics). Every attempt
  /// against a page owned by one of them fails; without a replica set its
  /// reads always exhaust their retries and degrade. Several entries
  /// express multi-device loss, e.g. a whole replica group down to prove
  /// quorum-lost dead-lettering.
  std::vector<int> offline_devices;
  /// Virtual-time onset of the offline state: the devices in the offline
  /// set only start failing once the storage array's virtual clock
  /// (StorageArray::AdvanceClock) reaches this instant. The default of 0
  /// takes them down from the first read.
  TimeNs offline_at_ns = 0;
  /// Probability that a *successful* attempt serves silently corrupted
  /// data: a short burst of bytes in the page is flipped and the command
  /// still completes OK (no error status, no timeout). Invisible without
  /// checksum verification (IntegrityOptions, INTEGRITY.md); with
  /// verify-on-read a corrupt attempt is detected and re-read like any
  /// other failed attempt. Evaluated after the loud modes — an attempt
  /// that already failed loudly never also corrupts.
  double corruption_rate = 0.0;

  /// True when `device` is offline at virtual time `now_ns`. Pure function
  /// of the options — health views built from it are identical at any
  /// thread count or call order.
  bool DeviceOffline(int device, TimeNs now_ns) const {
    if (now_ns < offline_at_ns) return false;
    for (int d : offline_devices) {
      if (d == device) return true;
    }
    return false;
  }

  bool enabled() const {
    return fault_rate > 0.0 || latency_spike_rate > 0.0 ||
           stuck_queue_rate > 0.0 || !offline_devices.empty() ||
           corruption_rate > 0.0;
  }
  bool operator==(const FaultOptions&) const = default;
};

/// Deterministic, seed-driven fault source for the storage stack.
///
/// Each (page, attempt) pair hashes to an independent uniform draw per
/// fault mode, so: (a) outcomes are identical across runs and thread
/// counts; (b) a retry of a transiently failed page is a fresh draw (the
/// fault is transient, not sticky); (c) re-reading a page later in the run
/// (after a cache eviction) replays the same outcome sequence, modeling a
/// weak region of the medium. Besides the loud modes (transient error,
/// timeout, offline device) the injector models *silent* corruption: a
/// successful attempt may carry flipped bytes with no error signal
/// (Attempt::corrupt; see INTEGRITY.md for the detection/repair side).
/// Thread-safe: decisions are stateless; the injection counters are
/// atomic.
class FaultInjector {
 public:
  enum class Outcome : uint8_t {
    kOk = 0,         // attempt succeeds after `extra_ns` of added latency
    kTransient = 1,  // command error after one service latency
    kTimeout = 2,    // stuck queue or spike past the timeout
    kOffline = 3,    // owning device is offline; fails until exhaustion
  };

  struct Attempt {
    Outcome outcome = Outcome::kOk;
    /// Virtual time this attempt consumed beyond the base service latency
    /// (latency spike on success; timeout overrun on kTimeout).
    TimeNs extra_ns = 0;
    /// kOk only: the served bytes are silently corrupted (the command
    /// reported success). Meaningless for failed outcomes.
    bool corrupt = false;
  };

  FaultInjector(const FaultOptions& options, const RetryPolicy& retry)
      : options_(options), retry_(retry) {}

  const FaultOptions& options() const { return options_; }

  /// Decides the fate of attempt `attempt` (0-based) of a read of `page`
  /// served by striped device `device` (the page's primary, or the replica
  /// routing chose), whose fault-free service latency is `base_latency_ns`.
  /// `now_ns` is the storage array's virtual clock, consulted only by the
  /// offline-onset check. Also advances the injection counters.
  Attempt Evaluate(uint64_t page, int device, uint32_t attempt,
                   TimeNs base_latency_ns, TimeNs now_ns = 0);

  /// The decision Evaluate would make, without touching any counter. Used
  /// by tests to locate pages with a wanted outcome pattern.
  Attempt Peek(uint64_t page, int device, uint32_t attempt,
               TimeNs base_latency_ns, TimeNs now_ns = 0) const;

  uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }
  uint64_t spikes_injected() const {
    return spikes_injected_.load(std::memory_order_relaxed);
  }
  uint64_t stalls_injected() const {
    return stalls_injected_.load(std::memory_order_relaxed);
  }
  uint64_t pages_corrupted() const {
    return pages_corrupted_.load(std::memory_order_relaxed);
  }

  /// Applies the deterministic corruption pattern of (page, attempt) to
  /// `data`: a contiguous burst of 1-4 bytes is XORed with nonzero masks.
  /// The burst never exceeds 32 bits, which CRC-32C detects with
  /// certainty — so a corrupted page always fails verification, and the
  /// repair counters of a functional (byte-moving) run match a
  /// counting-mode run exactly. Call only when Evaluate returned
  /// corrupt = true; position and masks are pure functions of
  /// (fault_seed, page, attempt).
  void Corrupt(uint64_t page, uint32_t attempt,
               std::span<std::byte> data) const;

 private:
  /// Uniform [0, 1) draw for (page, attempt) in decorrelated stream `mode`.
  double Draw(uint64_t page, uint32_t attempt, uint64_t mode) const;

  FaultOptions options_;
  RetryPolicy retry_;
  std::atomic<uint64_t> faults_injected_{0};
  std::atomic<uint64_t> spikes_injected_{0};
  std::atomic<uint64_t> stalls_injected_{0};
  std::atomic<uint64_t> pages_corrupted_{0};
};

}  // namespace gids::storage

#endif  // GIDS_STORAGE_FAULT_INJECTOR_H_
