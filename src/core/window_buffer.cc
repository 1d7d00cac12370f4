#include "core/window_buffer.h"

#include "common/check.h"

namespace gids::core {

WindowBuffer::WindowBuffer(storage::SoftwareCache* cache,
                           const graph::FeatureStore* layout,
                           const storage::HotNodeBuffer* hot_buffer)
    : cache_(cache), layout_(layout), hot_buffer_(hot_buffer) {
  GIDS_CHECK(cache_ != nullptr);
  GIDS_CHECK(layout_ != nullptr);
}

void WindowBuffer::Register(const sampling::MiniBatch& batch) {
  for (graph::NodeId v : batch.input_nodes()) {
    if (hot_buffer_ != nullptr && hot_buffer_->Contains(v)) continue;
    auto range = layout_->PagesFor(v);
    for (uint64_t page = range.first; page <= range.last; ++page) {
      cache_->AddFutureReuse(page, 1);
      ++registered_pages_;
    }
  }
  ++registered_batches_;
}

void WindowBuffer::BindMetrics(obs::MetricRegistry* registry,
                               const obs::Labels& labels) const {
  GIDS_CHECK(registry != nullptr);
  using obs::MetricType;
  registry->RegisterCallback(
      "gids_window_registered_batches_total", labels, MetricType::kCounter,
      [this] { return static_cast<double>(registered_batches_); });
  registry->RegisterCallback(
      "gids_window_registered_pages_total", labels, MetricType::kCounter,
      [this] { return static_cast<double>(registered_pages_); });
}

}  // namespace gids::core
