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
  uint64_t h = Mix(content_seed_ ^ (static_cast<uint64_t>(v) * feature_dim_ + j));
  // Map the top 24 bits to [-0.5, 0.5).
  return static_cast<float>(h >> 40) * (1.0f / 16777216.0f) - 0.5f;
}

float FeatureStore::ExpectedElementAt(NodeId v, uint32_t j,
                                      uint64_t version) const {
  if (version == 0) return ExpectedElement(v, j);
  // Fold the row version in through a second mix round so version v+1 is
  // as decorrelated from version v as two unrelated nodes are.
  uint64_t h = Mix(Mix(content_seed_ ^ (version * 0x9e3779b97f4a7c15ull)) ^
                   (static_cast<uint64_t>(v) * feature_dim_ + j));
  return static_cast<float>(h >> 40) * (1.0f / 16777216.0f) - 0.5f;
}

void FeatureStore::FillFeature(NodeId v, std::span<float> out) const {
  GIDS_CHECK(out.size() >= feature_dim_);
  for (uint32_t j = 0; j < feature_dim_; ++j) out[j] = ExpectedElement(v, j);
}

void FeatureStore::FillFeatureAt(NodeId v, uint64_t version,
                                 std::span<float> out) const {
  GIDS_CHECK(out.size() >= feature_dim_);
  for (uint32_t j = 0; j < feature_dim_; ++j) {
    out[j] = ExpectedElementAt(v, j, version);
  }
}

void FeatureStore::FillPage(uint64_t page, std::span<std::byte> out) const {
  GIDS_CHECK(out.size() == page_bytes_);
  // Rows start at multiples of 4 * dim bytes and pages at multiples of
  // page_bytes_, itself a multiple of 4, so no element straddles a page:
  // the page holds whole elements [first, end) of the flat file, whose
  // element k = v * dim + j sits at byte 4k.
  const uint64_t first = page * (page_bytes_ / sizeof(float));
  const uint64_t end =
      std::min(first + page_bytes_ / sizeof(float),
               static_cast<uint64_t>(num_nodes_) * feature_dim_);
  std::byte* dst = out.data();
  NodeId v = static_cast<NodeId>(first / feature_dim_);
  uint32_t j = static_cast<uint32_t>(first % feature_dim_);
  for (uint64_t k = first; k < end; ++k) {
    float value = ExpectedElement(v, j);
    std::memcpy(dst, &value, sizeof(float));
    dst += sizeof(float);
    if (++j == feature_dim_) {
      j = 0;
      ++v;
    }
  }
  // Bytes past the end of the feature file read as zeros.
  std::memset(dst, 0, static_cast<size_t>(out.data() + out.size() - dst));
}

}  // namespace gids::graph
