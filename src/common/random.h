#ifndef GIDS_COMMON_RANDOM_H_
#define GIDS_COMMON_RANDOM_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/check.h"

namespace gids {

/// SplitMix64: used for seeding and as a cheap standalone generator.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// xoshiro256**: the library-wide deterministic PRNG. All GIDS randomness
/// (graph generation, sampling, eviction) flows through seeded instances of
/// this class so experiments are reproducible bit-for-bit.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed = 0x9f0c1e2d3b4a5968ull) { Seed(seed); }

  /// Re-seeds the generator state from a single 64-bit seed via SplitMix64.
  void Seed(uint64_t seed) {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.Next();
  }

  /// Equal generators produce equal sequences.
  friend bool operator==(const Rng&, const Rng&) = default;

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // UniformRandomBitGenerator interface (usable with <random> adapters).
  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~0ull; }
  uint64_t operator()() { return Next(); }

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  uint64_t UniformInt(uint64_t bound) {
    GIDS_DCHECK(bound > 0);
    __uint128_t m = static_cast<__uint128_t>(Next()) * bound;
    uint64_t lo = static_cast<uint64_t>(m);
    if (lo < bound) {
      uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(Next()) * bound;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t UniformRange(int64_t lo, int64_t hi) {
    GIDS_DCHECK(lo <= hi);
    return lo + static_cast<int64_t>(
                    UniformInt(static_cast<uint64_t>(hi - lo) + 1));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  /// Returns true with probability p.
  bool Bernoulli(double p) { return UniformDouble() < p; }

  /// Standard normal via Box-Muller (uncached; fine for our use).
  double Normal();

  /// Exponential with mean 1 via inverse CDF (-log(1 - u)); scale by the
  /// desired mean at the call site. Always finite and > 0.
  double Exponential();

  /// Poisson-distributed count with the given mean (> 0). Knuth's
  /// product-of-uniforms method, O(mean) draws — fine for the per-step
  /// arrival counts (mean of a few) the traffic generator needs.
  uint64_t Poisson(double mean);

  /// Forks an independently-seeded child generator; children with distinct
  /// `stream` values produce decorrelated sequences.
  Rng Fork(uint64_t stream) const {
    SplitMix64 sm(state_[0] ^ (stream * 0x9e3779b97f4a7c15ull) ^ state_[3]);
    return Rng(sm.Next());
  }

 private:
  friend class RngJump;

  static uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t state_[4];
};

/// Skips an Rng ahead by a fixed number of steps. xoshiro256**'s state
/// update is linear over GF(2), so `n` calls to Next() are one 256x256 bit
/// matrix, built by repeated squaring of the one-step matrix (O(log n)
/// matrix products, 8 KiB). Apply() is one matrix-vector product, so
/// generators spaced `n` draws apart, one per parallel work block, each
/// start in about a microsecond.
class RngJump {
 public:
  explicit RngJump(uint64_t n);

  /// Leaves `rng` where `n` calls to rng.Next() would.
  void Apply(Rng& rng) const;

 private:
  using State = std::array<uint64_t, 4>;

  // The product of the matrix `m` (columns: images of the state bits) and
  // the state `v`.
  static State Transform(const std::vector<State>& m, const uint64_t* v);

  std::vector<State> cols_;  // cols_[i]: the jumped image of state bit i
};

/// The RNG for iteration `iteration` of a deterministic stream rooted at
/// `seed`: each iteration gets an independent, reproducible generator, so
/// work items (e.g. the sampler calls for accumulator-merged future
/// iterations) can run concurrently and out of order without changing any
/// iteration's random sequence.
inline Rng IterationRng(uint64_t seed, uint64_t iteration) {
  return Rng(seed ^ SplitMix64(iteration).Next());
}

/// Fisher-Yates shuffle of `items` using `rng`.
template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) {
    size_t j = rng.UniformInt(i);
    std::swap(items[i - 1], items[j]);
  }
}

/// Samples `k` distinct values uniformly from [0, n) without replacement
/// into `out` (cleared first). If k >= n, emits all of [0, n) in order.
/// Floyd's algorithm; the duplicate check is a linear scan over the <= k
/// values emitted so far, O(k^2) in all, which beats a hash set for the
/// fanout-sized k (~10) the samplers use and allocates nothing when `out`
/// has capacity. Draws exactly the same UniformInt sequence — and emits
/// exactly the same values — as the std::vector overload below.
template <typename OutVec>
void SampleWithoutReplacementInto(uint64_t n, uint64_t k, Rng& rng,
                                  OutVec& out) {
  out.clear();
  if (k >= n) {
    for (uint64_t v = 0; v < n; ++v) out.push_back(v);
    return;
  }
  for (uint64_t j = n - k; j < n; ++j) {
    uint64_t t = rng.UniformInt(j + 1);
    bool dup = false;
    for (uint64_t prev : out) {
      if (prev == t) {
        dup = true;
        break;
      }
    }
    // When t collides with an earlier pick, Floyd's substitutes j itself —
    // j is new by construction (every earlier value is < j).
    out.push_back(dup ? j : t);
  }
}

/// Samples `k` distinct values uniformly from [0, n) without replacement.
/// If k >= n, returns all of [0, n) in order. Floyd's algorithm with a hash
/// set for the duplicate check: O(k) expected, for k in the thousands (a
/// dataset's train ids).
std::vector<uint64_t> SampleWithoutReplacement(uint64_t n, uint64_t k,
                                               Rng& rng);

/// Zipf(s) distribution over ranks [0, n): P(rank = r) proportional to
/// 1 / (r + 1)^s, rank 0 the most popular. s == 0 degenerates to uniform.
/// Sampling is inverse-CDF via binary search over a precomputed table —
/// O(n) memory once, O(log n) per draw, exact (no rejection, no harmonic
/// approximation), and bit-deterministic for a given (n, s, rng stream).
/// The serving traffic generator maps ranks onto seed-node ids so popular
/// nodes recur across concurrent requests (the skew GatherGroup exploits).
class ZipfDistribution {
 public:
  ZipfDistribution(uint64_t n, double s);

  uint64_t n() const { return cdf_.size(); }
  double s() const { return s_; }

  /// Draws one rank in [0, n()).
  uint64_t Sample(Rng& rng) const;

 private:
  double s_;
  std::vector<double> cdf_;  // cdf_[r] = P(rank <= r), cdf_.back() == 1.0
};

}  // namespace gids

#endif  // GIDS_COMMON_RANDOM_H_
