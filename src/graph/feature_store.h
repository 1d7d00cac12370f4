#ifndef GIDS_GRAPH_FEATURE_STORE_H_
#define GIDS_GRAPH_FEATURE_STORE_H_

#include <cstdint>
#include <span>

#include "common/check.h"
#include "common/status.h"
#include "graph/types.h"

namespace gids::graph {

/// Describes how the N x D float32 node-feature matrix is laid out on
/// storage: features are stored back-to-back, and storage is accessed in
/// fixed-size pages (the BaM cache-line granularity, 4 KiB by default).
///
/// A node's feature vector may occupy a fraction of a page (dim 128 ->
/// 512 B, 8 nodes/page, as in ogbn-papers100M), exactly one page (dim
/// 1024, as in IGB), or span pages (dim 768 -> 3 KiB, as in MAG240M).
///
/// Feature *contents* are synthetic and deterministic: element k = v * dim
/// + j of the flat feature file (element j of node v) is a pure function
/// of k, so both the functional block device and in-memory verifiers
/// regenerate identical bytes (see ExpectedElement). The Fill* calls
/// generate runs of consecutive elements with one vectorized kernel;
/// ExpectedElement and ExpectedElementAt are its scalar definition.
class FeatureStore {
 public:
  FeatureStore(NodeId num_nodes, uint32_t feature_dim,
               uint32_t page_bytes = 4096, uint64_t content_seed = 0xfea7)
      : num_nodes_(num_nodes),
        feature_dim_(feature_dim),
        page_bytes_(page_bytes),
        content_seed_(content_seed) {
    GIDS_CHECK(feature_dim > 0);
    GIDS_CHECK(page_bytes > 0 && page_bytes % sizeof(float) == 0);
  }

  NodeId num_nodes() const { return num_nodes_; }
  uint32_t feature_dim() const { return feature_dim_; }
  uint32_t page_bytes() const { return page_bytes_; }
  uint64_t content_seed() const { return content_seed_; }

  uint64_t feature_bytes_per_node() const {
    return static_cast<uint64_t>(feature_dim_) * sizeof(float);
  }
  uint64_t total_bytes() const {
    return feature_bytes_per_node() * num_nodes_;
  }
  uint64_t num_pages() const {
    return (total_bytes() + page_bytes_ - 1) / page_bytes_;
  }

  /// Byte offset of node v's feature vector within the flat feature file.
  uint64_t ByteOffset(NodeId v) const {
    GIDS_DCHECK(v < num_nodes_);
    return static_cast<uint64_t>(v) * feature_bytes_per_node();
  }

  /// First and last (inclusive) page touched by node v's feature vector.
  struct PageRange {
    uint64_t first;
    uint64_t last;
    uint64_t count() const { return last - first + 1; }
  };
  PageRange PagesFor(NodeId v) const {
    uint64_t begin = ByteOffset(v);
    uint64_t end = begin + feature_bytes_per_node() - 1;
    return PageRange{begin / page_bytes_, end / page_bytes_};
  }

  /// Average pages touched per gathered node (>= 1; the I/O amplification
  /// factor for sub-page and page-spanning feature dims).
  double PagesPerNode() const;

  /// Deterministic synthetic value of feature element (v, j), in
  /// [-0.5, 0.5).
  float ExpectedElement(NodeId v, uint32_t j) const;

  /// Versioned variant for the journaled write path (FAULTS.md
  /// "Durability & failover"): the synthetic value of element (v, j)
  /// after `version` feature updates of node v. Version 0 is
  /// ExpectedElement exactly; higher versions fold the version into the
  /// mix, so every update writes a deterministic, distinct row that any
  /// verifier can regenerate from (v, version) alone.
  float ExpectedElementAt(NodeId v, uint32_t j, uint64_t version) const;

  /// Writes node v's full feature vector into `out` (size >= feature_dim).
  void FillFeature(NodeId v, std::span<float> out) const;

  /// Versioned FillFeature (see ExpectedElementAt).
  void FillFeatureAt(NodeId v, uint64_t version, std::span<float> out) const;

  /// Regenerates the raw bytes of storage page `page` into `out`
  /// (size == page_bytes). Bytes past the end of the feature file are
  /// zero-filled. This is the ground truth the synthetic block device
  /// serves, byte-identical to FillFeature's view. With `versions`
  /// (one entry per node) each row's part of the page is filled under
  /// that row's version instead, byte-identical to FillFeatureAt's view.
  void FillPage(uint64_t page, std::span<std::byte> out,
                std::span<const uint64_t> versions = {}) const;

 private:
  NodeId num_nodes_;
  uint32_t feature_dim_;
  uint32_t page_bytes_;
  uint64_t content_seed_;
};

}  // namespace gids::graph

#endif  // GIDS_GRAPH_FEATURE_STORE_H_
