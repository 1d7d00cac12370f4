#include "core/constant_cpu_buffer.h"

#include <algorithm>

#include "common/check.h"
#include "graph/pagerank.h"

namespace gids::core {

const char* HotMetricName(HotMetric metric) {
  switch (metric) {
    case HotMetric::kReversePageRank:
      return "reverse-pagerank";
    case HotMetric::kInDegree:
      return "in-degree";
    case HotMetric::kRandom:
      return "random";
  }
  return "unknown";
}

namespace {

/// Hottest-first node order under `metric`. `seed` only matters for
/// HotMetric::kRandom.
std::vector<graph::NodeId> HotMetricRanking(const graph::CscGraph& graph,
                                            HotMetric metric, uint64_t seed) {
  std::vector<graph::NodeId> order;
  switch (metric) {
    case HotMetric::kReversePageRank: {
      std::vector<double> score =
          graph::WeightedReversePageRank(graph, graph::PageRankOptions{});
      order = graph::RankNodesByScore(score);
      break;
    }
    case HotMetric::kInDegree:
      order = graph::RankNodesByInDegree(graph);
      break;
    case HotMetric::kRandom: {
      order.resize(graph.num_nodes());
      for (graph::NodeId v = 0; v < graph.num_nodes(); ++v) order[v] = v;
      Rng rng(seed);
      Shuffle(order, rng);
      break;
    }
  }
  return order;
}

}  // namespace

ConstantCpuBuffer ConstantCpuBuffer::Build(const graph::CscGraph& graph,
                                           const graph::FeatureStore& features,
                                           uint64_t capacity_bytes,
                                           HotMetric metric, uint64_t seed) {
  GIDS_CHECK(graph.num_nodes() == features.num_nodes());
  return FromRanking(features, HotMetricRanking(graph, metric, seed),
                     capacity_bytes);
}

ConstantCpuBuffer ConstantCpuBuffer::FromRanking(
    const graph::FeatureStore& features,
    const std::vector<graph::NodeId>& hottest_first, uint64_t capacity_bytes) {
  uint64_t per_node = features.feature_bytes_per_node();
  uint64_t budget_nodes = per_node == 0 ? 0 : capacity_bytes / per_node;
  budget_nodes = std::min<uint64_t>(budget_nodes, hottest_first.size());

  std::vector<bool> pinned(features.num_nodes(), false);
  for (uint64_t i = 0; i < budget_nodes; ++i) pinned[hottest_first[i]] = true;
  return ConstantCpuBuffer(&features, std::move(pinned), budget_nodes);
}

ConstantCpuBuffer ConstantCpuBuffer::FromNodeSet(
    const graph::FeatureStore& features,
    const std::vector<graph::NodeId>& nodes) {
  std::vector<bool> pinned(features.num_nodes(), false);
  uint64_t count = 0;
  for (graph::NodeId v : nodes) {
    GIDS_CHECK(v < features.num_nodes());
    if (!pinned[v]) {
      pinned[v] = true;
      ++count;
    }
  }
  return ConstantCpuBuffer(&features, std::move(pinned), count);
}

ConstantCpuBuffer::ScrubResult ConstantCpuBuffer::ScrubRows(
    const storage::PageChecksummer& checksummer, uint64_t max_rows) {
  ScrubResult r;
  if (num_pinned_ == 0 || max_rows == 0) return r;
  std::lock_guard<std::mutex> lock(scrub_->mu);
  if (scrub_->nodes.empty()) {
    scrub_->nodes.reserve(num_pinned_);
    for (graph::NodeId v = 0; v < pinned_.size(); ++v) {
      if (pinned_[v]) scrub_->nodes.push_back(v);
    }
    scrub_->crcs.assign(scrub_->nodes.size(), 0);
    scrub_->baseline_versions.assign(scrub_->nodes.size(),
                                     ScrubState::kNoBaseline);
  }
  std::vector<float> row(features_->feature_dim());
  const size_t n = scrub_->nodes.size();
  // At most one full cycle per call; the cursor persists across calls.
  for (size_t step = 0; step < n && r.rows < max_rows; ++step) {
    size_t idx = scrub_->cursor;
    scrub_->cursor = (scrub_->cursor + 1) % n;
    graph::NodeId node = scrub_->nodes[idx];
    const uint64_t version = RowVersion(node);
    features_->FillFeatureAt(node, version, std::span<float>(row));
    uint32_t crc = checksummer.Checksum(node, row.data(),
                                        row.size() * sizeof(float));
    if (scrub_->baseline_versions[idx] != version) {
      scrub_->crcs[idx] = crc;
      scrub_->baseline_versions[idx] = version;
    } else if (scrub_->crcs[idx] != crc) {
      ++r.errors;
      scrub_->crcs[idx] = crc;  // re-baseline the repaired row
    }
    ++r.rows;
  }
  return r;
}

void ConstantCpuBuffer::Fill(graph::NodeId node, std::span<float> out) const {
  GIDS_CHECK(Contains(node));
  features_->FillFeatureAt(node, RowVersion(node), out);
  if (fills_total_ != nullptr) {
    fills_total_->Inc();
    bytes_served_total_->Inc(features_->feature_bytes_per_node());
  }
}

void ConstantCpuBuffer::ServeVersions(std::span<const uint64_t> versions) {
  GIDS_CHECK(versions.empty() || versions.size() == pinned_.size());
  versions_ = versions;
}

void ConstantCpuBuffer::BindMetrics(obs::MetricRegistry* registry,
                                    const obs::Labels& labels) {
  GIDS_CHECK(registry != nullptr);
  using obs::MetricType;
  registry->RegisterCallback(
      "gids_cpu_buffer_pinned_nodes", labels, MetricType::kGauge,
      [this] { return static_cast<double>(num_pinned()); });
  registry->RegisterCallback(
      "gids_cpu_buffer_pinned_bytes", labels, MetricType::kGauge,
      [this] { return static_cast<double>(pinned_bytes()); });
  fills_total_ = registry->GetCounter("gids_cpu_buffer_fills_total", labels);
  bytes_served_total_ =
      registry->GetCounter("gids_cpu_buffer_bytes_served_total", labels);
}

}  // namespace gids::core
