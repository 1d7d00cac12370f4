#ifndef GIDS_CORE_CONSTANT_CPU_BUFFER_H_
#define GIDS_CORE_CONSTANT_CPU_BUFFER_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "common/random.h"
#include "graph/csc_graph.h"
#include "graph/feature_store.h"
#include "graph/types.h"
#include "obs/metric_registry.h"
#include "storage/feature_gather.h"
#include "storage/page_integrity.h"

namespace gids::core {

/// How hot nodes are chosen for pinning in the constant CPU buffer (§3.3).
enum class HotMetric {
  kReversePageRank,  // the paper's default (Data Tiering metric)
  kInDegree,         // cheap heuristic, ablation
  kRandom,           // control: shows the ranking matters (Fig. 10)
};

const char* HotMetricName(HotMetric metric);

/// The constant CPU buffer (§3.3): a user-sized region of pinned host
/// memory holding the feature vectors of the hottest nodes. Feature
/// gathers check it first; hits cross PCIe from DRAM instead of consuming
/// SSD bandwidth, raising effective aggregation bandwidth toward the PCIe
/// limit when SSDs are the bottleneck.
class ConstantCpuBuffer : public storage::HotNodeBuffer {
 public:
  /// Pins the top-ranked nodes by `metric` until `capacity_bytes` of
  /// feature data is pinned.
  static ConstantCpuBuffer Build(const graph::CscGraph& graph,
                                 const graph::FeatureStore& features,
                                 uint64_t capacity_bytes, HotMetric metric,
                                 uint64_t seed = 0xc0feb0f);

  /// Pins an explicit node set (the paper lets users supply their own
  /// hot-node metric).
  static ConstantCpuBuffer FromNodeSet(
      const graph::FeatureStore& features,
      const std::vector<graph::NodeId>& nodes);

  /// Pins the head of a hottest-first ranking until `capacity_bytes` of
  /// feature data is pinned — the budget arithmetic of Build applied to a
  /// caller-supplied order (a cache policy's HotNodeRanking, a presample
  /// frequency ranking, ...).
  static ConstantCpuBuffer FromRanking(
      const graph::FeatureStore& features,
      const std::vector<graph::NodeId>& hottest_first,
      uint64_t capacity_bytes);

  bool Contains(graph::NodeId node) const override {
    return node < pinned_.size() && pinned_[node];
  }
  void Fill(graph::NodeId node, std::span<float> out) const override;

  uint64_t num_pinned() const { return num_pinned_; }
  uint64_t pinned_bytes() const {
    return num_pinned_ * features_->feature_bytes_per_node();
  }

  /// Result of one ScrubRows sweep.
  struct ScrubResult {
    uint64_t rows = 0;    // pinned rows verified
    uint64_t errors = 0;  // rows whose checksum changed between sweeps
  };

  /// Background-scrubber entry point (INTEGRITY.md): verifies up to
  /// `max_rows` pinned feature rows against their node-tagged checksums,
  /// resuming from a persistent cursor so successive sweeps cycle the
  /// whole pinned set. The first visit of a row, and the first visit
  /// after its version changed (a legitimate update, not corruption),
  /// establishes its baseline sum; later visits compare (and re-baseline
  /// on mismatch). Thread-safe against Fill; one scrub runs at a time
  /// under an internal mutex.
  ScrubResult ScrubRows(const storage::PageChecksummer& checksummer,
                        uint64_t max_rows);

  /// Journaled write path (FAULTS.md "Durability & failover"): serve
  /// every row at its entry of `versions` (one per node; FeatureStore::
  /// ExpectedElementAt), so CPU-buffer hits see the applied updates. The
  /// table belongs to the caller and must outlive the buffer; the loader
  /// passes its mutation stream's applied versions, written only by the
  /// apply step, which never runs beside a gather or a scrub. Without a
  /// table every row is at version 0.
  void ServeVersions(std::span<const uint64_t> versions);

  /// Current feature version of `node`'s row (0 = never updated).
  uint64_t RowVersion(graph::NodeId node) const {
    return versions_.empty() ? 0 : versions_[node];
  }

  /// Exposes the buffer through `registry`: pinned-set gauges plus
  /// redirect counters (nodes served and bytes crossing PCIe from host
  /// DRAM) that Fill drives on every functional hit. Counting-mode runs
  /// never call Fill; their redirect traffic is counted by the loader from
  /// the gather counts instead.
  void BindMetrics(obs::MetricRegistry* registry, const obs::Labels& labels);

 private:
  ConstantCpuBuffer(const graph::FeatureStore* features,
                    std::vector<bool> pinned, uint64_t num_pinned)
      : features_(features),
        pinned_(std::move(pinned)),
        num_pinned_(num_pinned) {}

  const graph::FeatureStore* features_;
  std::vector<bool> pinned_;
  uint64_t num_pinned_;
  std::span<const uint64_t> versions_;  // per-node row versions, or empty
  obs::Counter* fills_total_ = nullptr;        // registry-owned
  obs::Counter* bytes_served_total_ = nullptr;  // registry-owned
  /// Scrubber state, populated lazily on the first ScrubRows call: the
  /// pinned node ids in ascending order, their baseline checksums and the
  /// row versions those were taken at (kNoBaseline before the first
  /// visit), and the sweep cursor. Heap-allocated (the buffer is
  /// move-constructed by its factories and std::mutex is not movable);
  /// guarded by its mutex.
  struct ScrubState {
    static constexpr uint64_t kNoBaseline = ~0ull;
    std::mutex mu;
    std::vector<graph::NodeId> nodes;
    std::vector<uint32_t> crcs;
    std::vector<uint64_t> baseline_versions;
    size_t cursor = 0;
  };
  std::unique_ptr<ScrubState> scrub_ = std::make_unique<ScrubState>();
};

}  // namespace gids::core

#endif  // GIDS_CORE_CONSTANT_CPU_BUFFER_H_
