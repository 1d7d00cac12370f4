#include "graph/feature_store.h"

#include <algorithm>
#include <cstring>
#include <numeric>

namespace gids::graph {
namespace {

uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

// Maps the top 24 bits of a mixed word to [-0.5, 0.5). Every step is exact
// in float, so vector and scalar code produce the same bits.
float ToUnit(uint64_t h) {
  return static_cast<float>(h >> 40) * (1.0f / 16777216.0f) - 0.5f;
}

// The mix base of row version `version`: element k of that version is
// ToUnit(Mix(base ^ k)). Version 0 is the seed itself; later versions fold
// the version in through a second mix round, so version v+1 is as
// decorrelated from version v as two unrelated nodes are.
uint64_t VersionBase(uint64_t content_seed, uint64_t version) {
  if (version == 0) return content_seed;
  return Mix(content_seed ^ (version * 0x9e3779b97f4a7c15ull));
}

// Writes elements [first, first + n) under `base` to `out` as float32
// bytes. The fixed 16-wide inner loop is the shape GCC's -O2 cost model
// vectorizes; the scalar tail finishes the rest.
[[gnu::always_inline]] inline void FillElementsBody(uint64_t base,
                                                    uint64_t first,
                                                    uint64_t n,
                                                    std::byte* out) {
  constexpr uint64_t kLanes = 16;
  uint64_t i = 0;
  for (; i + kLanes <= n; i += kLanes) {
    float chunk[kLanes] = {};
    for (uint64_t l = 0; l < kLanes; ++l) {
      chunk[l] = ToUnit(Mix(base ^ (first + i + l)));
    }
    std::memcpy(out + i * sizeof(float), chunk, sizeof(chunk));
  }
  for (; i < n; ++i) {
    const float value = ToUnit(Mix(base ^ (first + i)));
    std::memcpy(out + i * sizeof(float), &value, sizeof(float));
  }
}

#if defined(__x86_64__)
// The same kernel compiled for AVX-512, whose 64-bit multiply and
// int64-to-float conversion let the inner loop run eight lanes at once.
// It is chosen by a once-per-process CPU check rather than an ifunc
// (target_clones): ThreadSanitizer builds crash resolving an ifunc at
// startup.
__attribute__((target("avx512f,avx512dq"))) void FillElementsAvx512(
    uint64_t base, uint64_t first, uint64_t n, std::byte* out) {
  FillElementsBody(base, first, n, out);
}

bool CpuHasAvx512() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
}
#endif

void FillElements(uint64_t base, uint64_t first, uint64_t n,
                  std::byte* out) {
#if defined(__x86_64__)
  static const bool avx512 = CpuHasAvx512();
  if (avx512) {
    FillElementsAvx512(base, first, n, out);
    return;
  }
#endif
  FillElementsBody(base, first, n, out);
}

}  // namespace

double FeatureStore::PagesPerNode() const {
  if (num_nodes_ == 0) return 0;
  uint64_t pages = 0;
  // The layout repeats every lcm(feature_bytes, page_bytes); sampling one
  // period is exact. Cap the period scan for pathological dims.
  uint64_t fb = feature_bytes_per_node();
  uint64_t period_nodes = page_bytes_ / std::gcd(fb, (uint64_t)page_bytes_);
  period_nodes = std::min<uint64_t>(period_nodes, num_nodes_);
  if (period_nodes == 0) period_nodes = 1;
  for (NodeId v = 0; v < period_nodes; ++v) pages += PagesFor(v).count();
  return static_cast<double>(pages) / static_cast<double>(period_nodes);
}

float FeatureStore::ExpectedElement(NodeId v, uint32_t j) const {
  return ExpectedElementAt(v, j, 0);
}

float FeatureStore::ExpectedElementAt(NodeId v, uint32_t j,
                                      uint64_t version) const {
  return ToUnit(Mix(VersionBase(content_seed_, version) ^
                    (static_cast<uint64_t>(v) * feature_dim_ + j)));
}

void FeatureStore::FillFeature(NodeId v, std::span<float> out) const {
  FillFeatureAt(v, 0, out);
}

void FeatureStore::FillFeatureAt(NodeId v, uint64_t version,
                                 std::span<float> out) const {
  GIDS_CHECK(out.size() >= feature_dim_);
  FillElements(VersionBase(content_seed_, version),
               static_cast<uint64_t>(v) * feature_dim_, feature_dim_,
               reinterpret_cast<std::byte*>(out.data()));
}

void FeatureStore::FillPage(uint64_t page, std::span<std::byte> out,
                            std::span<const uint64_t> versions) const {
  GIDS_CHECK(out.size() == page_bytes_);
  GIDS_CHECK(versions.empty() || versions.size() == num_nodes_);
  // Rows start at multiples of 4 * dim bytes and pages at multiples of
  // page_bytes_, itself a multiple of 4, so no element straddles a page:
  // the page holds whole elements [first, first + n) of the flat file,
  // whose element k = v * dim + j sits at byte 4k. A page wholly past the
  // end of the file holds none.
  const uint64_t per_page = page_bytes_ / sizeof(float);
  const uint64_t first = page * per_page;
  const uint64_t total = static_cast<uint64_t>(num_nodes_) * feature_dim_;
  const uint64_t n = first < total ? std::min(per_page, total - first) : 0;
  // One run per row the page holds a part of, under that row's version
  // (version 0 when no table is given).
  for (uint64_t k = first; k < first + n;) {
    const uint64_t v = k / feature_dim_;
    const uint64_t end = std::min(first + n, (v + 1) * feature_dim_);
    const uint64_t base = versions.empty()
                              ? content_seed_
                              : VersionBase(content_seed_, versions[v]);
    FillElements(base, k, end - k, out.data() + (k - first) * sizeof(float));
    k = end;
  }
  // Bytes past the end of the feature file read as zeros.
  std::memset(out.data() + n * sizeof(float), 0,
              out.size() - n * sizeof(float));
}

}  // namespace gids::graph
