#include "common/random.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_set>

namespace gids {

double Rng::Normal() {
  // Box-Muller transform; guard against log(0).
  double u1 = UniformDouble();
  if (u1 <= 0.0) u1 = 1e-300;
  double u2 = UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

double Rng::Exponential() {
  double u = UniformDouble();  // in [0, 1); 1 - u in (0, 1] so log is finite
  return -std::log(1.0 - u);
}

uint64_t Rng::Poisson(double mean) {
  GIDS_CHECK(mean > 0.0);
  // Knuth: count uniforms until their product drops below e^-mean.
  const double limit = std::exp(-mean);
  uint64_t k = 0;
  double p = 1.0;
  do {
    ++k;
    p *= UniformDouble();
  } while (p > limit);
  return k - 1;
}

RngJump::RngJump(uint64_t n) : cols_(256) {
  // Start from the identity (n == 0 jumps nowhere) and the one-step matrix,
  // whose column i is Next()'s image of a state holding only bit i.
  std::vector<State> step(256);
  for (size_t i = 0; i < 256; ++i) {
    cols_[i][i / 64] = 1ull << (i % 64);
    Rng unit;
    std::fill(std::begin(unit.state_), std::end(unit.state_), 0);
    unit.state_[i / 64] = 1ull << (i % 64);
    unit.Next();
    std::copy(std::begin(unit.state_), std::end(unit.state_),
              step[i].begin());
  }
  // Powers of one matrix commute, so multiplying in any order gives step^n.
  std::vector<State> product(256);
  for (; n != 0; n >>= 1) {
    if (n & 1) {
      for (size_t i = 0; i < 256; ++i) {
        product[i] = Transform(step, cols_[i].data());
      }
      cols_.swap(product);
    }
    if (n > 1) {
      for (size_t i = 0; i < 256; ++i) {
        product[i] = Transform(step, step[i].data());
      }
      step.swap(product);
    }
  }
}

void RngJump::Apply(Rng& rng) const {
  State jumped = Transform(cols_, rng.state_);
  std::copy(jumped.begin(), jumped.end(), std::begin(rng.state_));
}

RngJump::State RngJump::Transform(const std::vector<State>& m,
                                  const uint64_t* v) {
  State out{};
  for (size_t w = 0; w < 4; ++w) {
    for (uint64_t bits = v[w]; bits != 0; bits &= bits - 1) {
      const State& col = m[w * 64 + std::countr_zero(bits)];
      for (size_t j = 0; j < 4; ++j) out[j] ^= col[j];
    }
  }
  return out;
}

std::vector<uint64_t> SampleWithoutReplacement(uint64_t n, uint64_t k,
                                               Rng& rng) {
  std::vector<uint64_t> result;
  result.reserve(std::min(n, k));
  if (k >= n) {
    for (uint64_t v = 0; v < n; ++v) result.push_back(v);
    return result;
  }
  std::unordered_set<uint64_t> picked;
  picked.reserve(k);
  // The same draws and picks as SampleWithoutReplacementInto.
  for (uint64_t j = n - k; j < n; ++j) {
    uint64_t t = rng.UniformInt(j + 1);
    if (!picked.insert(t).second) {
      t = j;
      picked.insert(j);
    }
    result.push_back(t);
  }
  return result;
}

ZipfDistribution::ZipfDistribution(uint64_t n, double s) : s_(s) {
  GIDS_CHECK_MSG(n > 0, "ZipfDistribution needs a non-empty rank domain");
  GIDS_CHECK(s >= 0.0);
  cdf_.resize(n);
  double total = 0.0;
  for (uint64_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = total;
  }
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against rounding leaving the tail short
}

uint64_t ZipfDistribution::Sample(Rng& rng) const {
  double u = rng.UniformDouble();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) --it;  // u rounding to >= cdf_.back()
  return static_cast<uint64_t>(it - cdf_.begin());
}

}  // namespace gids
