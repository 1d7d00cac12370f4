#include "storage/feature_gather.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <utility>

#include "common/check.h"

namespace gids::storage {

FeatureGatherer::FeatureGatherer(const graph::FeatureStore* layout,
                                 StorageArray* storage, SoftwareCache* cache,
                                 const HotNodeBuffer* hot_buffer,
                                 bool coalesce_pages)
    : layout_(layout),
      storage_(storage),
      cache_(cache),
      hot_buffer_(hot_buffer),
      coalesce_pages_(coalesce_pages) {
  GIDS_CHECK(layout_ != nullptr);
  GIDS_CHECK(storage_ != nullptr);
  GIDS_CHECK(cache_ != nullptr);
  GIDS_CHECK(layout_->page_bytes() == storage_->page_bytes());
  GIDS_CHECK(cache_->line_bytes() == storage_->page_bytes());
}

Status FeatureGatherer::GatherGroup(
    std::span<const GatherSlice> slices,
    std::span<FeatureGatherCounts> per_slice_counts, GatherReceipt* receipt) {
  if (per_slice_counts.size() != slices.size()) {
    return Status::InvalidArgument("one counts entry per slice required");
  }
  const uint32_t dim = layout_->feature_dim();
  bool functional = false;
  for (const GatherSlice& sl : slices) functional |= !sl.out.empty();
  for (const GatherSlice& sl : slices) {
    if (sl.nodes.empty()) continue;
    if (functional && sl.out.empty()) {
      return Status::InvalidArgument(
          "group mixes functional and counting slices");
    }
    if (functional && sl.out.size() < sl.nodes.size() * dim) {
      return Status::InvalidArgument("output buffer too small");
    }
  }
  if (receipt != nullptr) *receipt = GatherReceipt{};
  for (const GatherSlice& sl : slices) {
    for (graph::NodeId v : sl.nodes) {
      if (v >= layout_->num_nodes()) {
        return Status::OutOfRange("node id beyond feature store");
      }
    }
  }
  std::lock_guard<std::mutex> gather_lock(gather_mu_);
  const uint32_t num_slices = static_cast<uint32_t>(slices.size());
  const uint64_t page_bytes = layout_->page_bytes();
  const uint64_t feat_bytes = layout_->feature_bytes_per_node();

  // Walk the slices in order: hot nodes are served from the CPU buffer,
  // every other node's page accesses are recorded in slice-major node
  // order — the sequence each cache shard sees.
  counts_.clear();
  counts_.resize(num_slices);
  seq_.clear();
  for (uint32_t s = 0; s < num_slices; ++s) {
    const GatherSlice& sl = slices[s];
    counts_[s].nodes = sl.nodes.size();
    for (uint64_t i = 0; i < sl.nodes.size(); ++i) {
      const graph::NodeId v = sl.nodes[i];
      const auto range = layout_->PagesFor(v);
      if (hot_buffer_ != nullptr && hot_buffer_->Contains(v)) {
        if (functional) {
          hot_buffer_->Fill(v, sl.out.subspan(i * dim, dim));
        }
        // Account the same page-granularity traffic this node would have
        // cost on the storage path, now crossing PCIe from host DRAM.
        counts_[s].cpu_buffer_hits += range.count();
        continue;
      }
      for (uint64_t page = range.first; page <= range.last; ++page) {
        seq_.push_back(Access{page, i, s});
      }
    }
  }

  const size_t n_ssd = static_cast<size_t>(storage_->n_ssd());
  const size_t fo_cells = storage_->replica_set() != nullptr
                              ? n_ssd + ReplicaSet::kMaxReplicas
                              : 0;
  failovers_.assign(fo_cells, 0);
  degraded_.clear();
  corrupt_.clear();
  page_buf_.resize(functional ? page_bytes : 0);
  TimeNs penalty_ns = 0;
  TimeNs crc_ns = 0;
  TimeNs degraded_ns = 0;

  // Copies (or zero-fills) the intersection of `a`'s page and its row.
  auto scatter = [&](const Access& a, bool zero) {
    const GatherSlice& sl = slices[a.slice];
    const uint64_t node_begin = layout_->ByteOffset(sl.nodes[a.node]);
    std::byte* row_bytes =
        reinterpret_cast<std::byte*>(sl.out.data() + a.node * dim);
    const uint64_t page_begin = a.page * page_bytes;
    const uint64_t lo = std::max(node_begin, page_begin);
    const uint64_t hi =
        std::min(node_begin + feat_bytes, page_begin + page_bytes);
    if (zero) {
      std::memset(row_bytes + (lo - node_begin), 0, hi - lo);
    } else {
      std::memcpy(row_bytes + (lo - node_begin),
                  page_buf_.data() + (lo - page_begin), hi - lo);
    }
  };
  // Services `page` once through the cache/storage path into page_buf_
  // (empty in counting mode), charging `slice` and draining `reuses`
  // window pins. *degraded or *corrupt is set when the page was served as
  // zeroes.
  auto service = [&](uint64_t page, uint32_t slice, uint32_t reuses,
                     bool* degraded, bool* corrupt) {
    // Lookup copies under the owning shard's lock, so a concurrent
    // insertion into the same shard cannot tear the payload. A hit-time
    // integrity mismatch surfaces here as a miss (the line was
    // quarantined) and falls through to the repairing storage read.
    if (cache_->Lookup(page, page_buf_.span(), reuses)) {
      ++counts_[slice].gpu_cache_hits;
      return Status::OK();
    }
    StorageArray::ReadOutcome oc;
    Status st = storage_->ReadPage(page, page_buf_.span(), &oc);
    if (st.ok()) {
      ++counts_[slice].storage_reads;
      cache_->Insert(page, page_buf_.span(),
                     oc.crc_known ? std::optional<uint32_t>(oc.crc)
                                  : std::nullopt,
                     oc.served_corrupt);
    } else if (st.code() == StatusCode::kUnavailable) {
      // Retries exhausted (FAULTS.md): serve the page as zeroes and flag
      // the rows rather than failing the whole gather. Nothing is cached.
      *degraded = true;
    } else if (st.code() == StatusCode::kDataLoss) {
      // Never verified clean (INTEGRITY.md): same zero-fill degradation,
      // separate accounting.
      *corrupt = true;
    } else {
      return st;
    }
    // Bill the read to this call's receipt; a dead-lettered read's
    // non-CRC penalty is degraded service.
    penalty_ns += oc.penalty_ns;
    crc_ns += oc.crc_ns;
    if (*degraded || *corrupt) degraded_ns += oc.penalty_ns - oc.crc_ns;
    if (oc.served_replica != 0) {
      ++failovers_[storage_->DeviceFor(page)];
      ++failovers_[n_ssd + oc.served_replica];
    }
    return Status::OK();
  };

  if (!coalesce_pages_) {
    for (const Access& a : seq_) {
      bool degraded = false;
      bool corrupt = false;
      GIDS_RETURN_IF_ERROR(service(a.page, a.slice, 1, &degraded, &corrupt));
      if (degraded) degraded_.push_back({a.slice, a.node});
      if (corrupt) corrupt_.push_back({a.slice, a.node});
      if (functional) scatter(a, degraded || corrupt);
    }
  } else {
    // Group the sequence by page in first-occurrence order, service each
    // distinct page once — charged to the first requester's slice,
    // draining every member's window pin — and fan the payload, or the
    // degraded zero-fill, out to every requesting row. Members keep their
    // sequence order within each group (counting sort).
    group_of_.Reset(seq_.size());
    group_pages_.clear();
    group_counts_.clear();
    for (const Access& a : seq_) {
      auto [gid, inserted] = group_of_.TryEmplace(
          a.page, static_cast<uint32_t>(group_pages_.size()));
      if (inserted) {
        group_pages_.push_back(a.page);
        group_counts_.push_back(0);
      }
      ++group_counts_[*gid];
    }
    const size_t num_groups = group_pages_.size();
    group_cursor_.clear();
    group_cursor_.resize(num_groups);
    uint64_t running = 0;
    for (size_t g = 0; g < num_groups; ++g) {
      group_cursor_[g] = running;
      running += group_counts_[g];
    }
    members_.resize(seq_.size());
    for (uint64_t i = 0; i < seq_.size(); ++i) {
      members_[group_cursor_[*group_of_.Find(seq_[i].page)]++] = i;
    }
    // group_cursor_[g] is now group g's end offset in members_.
    for (size_t g = 0; g < num_groups; ++g) {
      const uint64_t count = group_counts_[g];
      const uint64_t begin = group_cursor_[g] - count;
      const Access& first = seq_[members_[begin]];
      bool degraded = false;
      bool corrupt = false;
      GIDS_RETURN_IF_ERROR(service(group_pages_[g], first.slice,
                                   static_cast<uint32_t>(count), &degraded,
                                   &corrupt));
      // A dead-lettered group charges no traffic counter at all — exactly
      // like the uncoalesced path, where a failed access shows up only in
      // degraded/corrupt_nodes. This keeps total_page_requests() (the
      // accumulator's denominator) identical with coalescing on or off.
      const bool served = !degraded && !corrupt;
      if (served) ++counts_[first.slice].distinct_pages;
      for (uint64_t m = 0; m < count; ++m) {
        const Access& a = seq_[members_[begin + m]];
        if (m > 0 && served) ++counts_[a.slice].coalesced_requests;
        if (degraded) degraded_.push_back({a.slice, a.node});
        if (corrupt) corrupt_.push_back({a.slice, a.node});
        if (functional) scatter(a, !served);
      }
    }
  }

  // Count each affected row once, in its own slice.
  auto count_rows = [&](std::vector<RowId>& rows,
                        uint64_t FeatureGatherCounts::* counter) {
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    for (const RowId& row : rows) counts_[row.first].*counter += 1;
  };
  count_rows(degraded_, &FeatureGatherCounts::degraded_nodes);
  count_rows(corrupt_, &FeatureGatherCounts::corrupt_nodes);
  for (uint32_t s = 0; s < num_slices; ++s) {
    per_slice_counts[s].Add(counts_[s]);
  }

  if (receipt == nullptr) return Status::OK();
  receipt->retry_penalty_ns = penalty_ns;
  receipt->crc_verify_ns = crc_ns;
  receipt->degraded_penalty_ns = degraded_ns;
  if (fo_cells > 0) {
    // Name the busiest from-device and to-replica (max_element: ties to
    // the lowest index).
    const uint64_t* from_device = failovers_.data();
    const uint64_t* to_replica = from_device + n_ssd;
    const uint64_t* end = from_device + fo_cells;
    receipt->failovers = std::accumulate(to_replica, end, uint64_t{0});
    receipt->failover_device = static_cast<int>(
        std::max_element(from_device, to_replica) - from_device);
    receipt->failover_replica =
        static_cast<int>(std::max_element(to_replica, end) - to_replica);
  }
  return Status::OK();
}

Status FeatureGatherer::Gather(std::span<const graph::NodeId> nodes,
                               std::span<float> out,
                               FeatureGatherCounts* counts) {
  GIDS_CHECK(counts != nullptr);
  GatherSlice slice{nodes, out};
  return GatherGroup(std::span<const GatherSlice>(&slice, 1),
                     std::span<FeatureGatherCounts>(counts, 1));
}

StatusOr<std::vector<float>> FeatureGatherer::Gather(
    std::span<const graph::NodeId> nodes, FeatureGatherCounts* counts) {
  std::vector<float> out(nodes.size() * layout_->feature_dim());
  GIDS_RETURN_IF_ERROR(Gather(nodes, std::span<float>(out), counts));
  return out;
}

obs::IterationLedger GatherCost::MemberLedger(size_t i) const {
  const TimeNs k = static_cast<TimeNs>(members);
  auto share = [&](TimeNs total) {
    return total / k + (static_cast<TimeNs>(i) < total % k ? 1 : 0);
  };
  obs::IterationLedger l;
  l.cache_hit_ns = share(kernel.cache_hit_ns);
  l.cpu_buffer_ns = share(kernel.cpu_buffer_ns);
  l.storage_ns = share(kernel.storage_ns);
  l.retry_backoff_ns = share(kernel.retry_backoff_ns);
  l.crc_verify_ns = share(kernel.crc_verify_ns);
  l.degraded_fill_ns = share(kernel.degraded_fill_ns);
  l.transfer_ns = share(kernel.transfer_ns);
  l.mutation_ns = share(kernel.mutation_ns);
  return l;
}

GatherCost CostGather(const sim::SystemModel& system,
                      const FeatureGatherCounts& counts, uint32_t page_bytes,
                      const GatherReceipt& receipt, uint64_t outstanding_cap,
                      TimeNs mutation_ns, size_t members) {
  GIDS_CHECK(members > 0);
  sim::AggregationCounts ac;
  ac.gpu_cache_hits = counts.gpu_cache_hits;
  ac.cpu_buffer_hits = counts.cpu_buffer_hits;
  ac.ssd_reads = counts.storage_reads;
  ac.page_bytes = page_bytes;
  ac.outstanding_accesses =
      std::min(counts.serviced_page_requests(), outstanding_cap);
  GatherCost c;
  c.timing = sim::ComputeAggregationTiming(system, ac);
  // Retries, backoff, spikes and verification extend the kernel's storage
  // phase (FAULTS.md), and so do the journaled writes of the step.
  c.kernel_ns = c.timing.total_ns + receipt.retry_penalty_ns + mutation_ns;
  obs::IterationLedger& k = c.kernel;
  k.cache_hit_ns = c.timing.hbm_ns;
  k.cpu_buffer_ns = c.timing.dram_ns;
  k.storage_ns = c.timing.ssd_ns;
  k.transfer_ns = c.timing.pcie_floor_ns;
  k.crc_verify_ns = receipt.crc_verify_ns;
  k.degraded_fill_ns = receipt.degraded_penalty_ns;
  k.retry_backoff_ns = receipt.retry_penalty_ns - receipt.crc_verify_ns -
                       receipt.degraded_penalty_ns;
  k.mutation_ns = mutation_ns;
  c.members = members;
  return c;
}

}  // namespace gids::storage
