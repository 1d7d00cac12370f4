#include "storage/feature_gather.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <utility>

#include "common/check.h"

namespace gids::storage {

FeatureGatherer::FeatureGatherer(const graph::FeatureStore* layout,
                                 BamArray* array,
                                 const HotNodeBuffer* hot_buffer,
                                 ThreadPool* pool, bool coalesce_pages)
    : layout_(layout),
      array_(array),
      hot_buffer_(hot_buffer),
      pool_(pool),
      coalesce_pages_(coalesce_pages) {
  GIDS_CHECK(layout_ != nullptr);
  GIDS_CHECK(array_ != nullptr);
  GIDS_CHECK(layout_->page_bytes() == array_->page_bytes());
  if (array_->cache() == nullptr && pool_ != nullptr) {
    while (cacheless_buckets_ < pool_->num_threads() * 2 &&
           cacheless_buckets_ < 64) {
      cacheless_buckets_ *= 2;
    }
  }
}

uint32_t FeatureGatherer::BucketFor(uint64_t page) const {
  const SoftwareCache* cache = array_->cache();
  if (cache != nullptr) return cache->ShardFor(page);
  return static_cast<uint32_t>((page * 0x9e3779b97f4a7c15ull) >> 32) &
         (cacheless_buckets_ - 1);
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
  // Scratch members are shared across calls; stray concurrent callers
  // serialize here (uncontended in the loader's single-flight pipeline).
  std::lock_guard<std::mutex> gather_lock(gather_mu_);
  const uint32_t num_slices = static_cast<uint32_t>(slices.size());
  // Slice-major global node order: slice s's nodes occupy global indices
  // [slice_begin[s], slice_begin[s + 1]). This is the canonical order the
  // serial uncoalesced gather replays, so a one-slice group is
  // bit-identical to the pre-group Gather.
  slice_begin_.clear();
  slice_begin_.resize(num_slices + 1);
  for (uint32_t s = 0; s < num_slices; ++s) {
    slice_begin_[s + 1] = slice_begin_[s] + slices[s].nodes.size();
  }
  const size_t n = slice_begin_[num_slices];
  if (n == 0) return Status::OK();
  const uint64_t page_bytes = layout_->page_bytes();
  const uint64_t feat_bytes = layout_->feature_bytes_per_node();
  const SoftwareCache* cache = array_->cache();
  const StorageArray* ssd_array = array_->storage();
  const uint32_t buckets =
      cache != nullptr ? cache->num_shards() : cacheless_buckets_;

  const size_t workers = pool_ != nullptr ? pool_->num_threads() : 1;
  const size_t target_chunks = std::min(
      n, std::max<size_t>(1, workers * ThreadPool::kChunksPerWorker));
  const size_t chunk_size = (n + target_chunks - 1) / target_chunks;
  const size_t num_chunks = (n + chunk_size - 1) / chunk_size;

  // Phase 1 (parallel over contiguous node chunks): validate ids, serve
  // hot nodes from the CPU buffer, and record every page access — with
  // its owning bucket — in node order into the chunk's flat scratch.
  chunks_.resize(num_chunks);
  auto phase1 = [&](size_t c) {
    ChunkScratch& co = chunks_[c];
    co.accesses.clear();
    co.cpu_hits.clear();
    co.cpu_hits.resize(num_slices);
    co.per_bucket.clear();
    co.per_bucket.resize(buckets);
    co.bad_node = false;
    const size_t begin = c * chunk_size;
    const size_t end = std::min(n, begin + chunk_size);
    // Locate the slice holding the chunk's first node, then walk forward;
    // chunks may straddle slice boundaries.
    uint32_t s = static_cast<uint32_t>(
        std::upper_bound(slice_begin_.begin(), slice_begin_.end(), begin) -
        slice_begin_.begin() - 1);
    for (size_t g = begin; g < end; ++g) {
      while (g >= slice_begin_[s + 1]) ++s;
      const GatherSlice& sl = slices[s];
      const size_t i = g - slice_begin_[s];
      graph::NodeId v = sl.nodes[i];
      if (v >= layout_->num_nodes()) {
        co.bad_node = true;
        continue;
      }
      auto range = layout_->PagesFor(v);
      if (hot_buffer_ != nullptr && hot_buffer_->Contains(v)) {
        if (functional) {
          hot_buffer_->Fill(
              v, std::span<float>(sl.out.data() + i * dim, dim));
        }
        // Account the same page-granularity traffic this node would have
        // cost on the storage path, now crossing PCIe from host DRAM.
        co.cpu_hits[s] += range.count();
        continue;
      }
      for (uint64_t page = range.first; page <= range.last; ++page) {
        uint32_t b = BucketFor(page);
        co.accesses.push_back(Access{page, i, s, b});
        ++co.per_bucket[b];
      }
    }
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(num_chunks, phase1);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) phase1(c);
  }

  for (const ChunkScratch& co : chunks_) {
    if (co.bad_node) return Status::OutOfRange("node id beyond feature store");
  }

  // Lay the per-bucket sequences out contiguously in seq_: bucket b owns
  // [bucket_begin_[b], bucket_begin_[b + 1]), filled chunk-major. Chunks
  // cover contiguous, increasing global node ranges, so each bucket's
  // span is in slice-major node order — exactly the sequence the serial
  // gather would have issued to that cache shard.
  bucket_begin_.clear();
  bucket_begin_.resize(buckets + 1);
  size_t total_accesses = 0;
  for (uint32_t b = 0; b < buckets; ++b) {
    bucket_begin_[b] = total_accesses;
    for (const ChunkScratch& co : chunks_) total_accesses += co.per_bucket[b];
  }
  bucket_begin_[buckets] = total_accesses;
  seq_.resize(total_accesses);
  // Turn each chunk's per-bucket counts into its write cursors, then
  // scatter in parallel: every (chunk, bucket) cell owns a disjoint range.
  for (uint32_t b = 0; b < buckets; ++b) {
    uint64_t running = bucket_begin_[b];
    for (ChunkScratch& co : chunks_) {
      uint64_t count = co.per_bucket[b];
      co.per_bucket[b] = running;
      running += count;
    }
  }
  auto scatter_chunk = [&](size_t c) {
    ChunkScratch& co = chunks_[c];
    for (const Access& a : co.accesses) {
      seq_[co.per_bucket[a.bucket]++] = a;
    }
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(num_chunks, scatter_chunk);
  } else {
    for (size_t c = 0; c < num_chunks; ++c) scatter_chunk(c);
  }

  // Per-bucket result cells, flat (buckets x num_slices), zeroed each
  // call without releasing capacity.
  bucket_gc_.clear();
  bucket_gc_.resize(static_cast<size_t>(buckets) * num_slices);
  bucket_coalesced_.clear();
  bucket_coalesced_.resize(static_cast<size_t>(buckets) * num_slices);
  bucket_distinct_.clear();
  bucket_distinct_.resize(static_cast<size_t>(buckets) * num_slices);
  const size_t n_ssd = static_cast<size_t>(ssd_array->n_ssd());
  const size_t fo_cells = ssd_array->replica_set() != nullptr
                              ? n_ssd + ReplicaSet::kMaxReplicas
                              : 0;
  bucket_failovers_.assign(buckets * fo_cells, 0);
  bucket_status_.assign(buckets, Status::OK());
  bucket_scratch_.resize(buckets);

  // Copies (or zero-fills) the intersection of `a`'s page and its row.
  auto scatter = [&](const Access& a, const std::byte* page_buf, bool zero) {
    const GatherSlice& sl = slices[a.slice];
    graph::NodeId v = sl.nodes[a.node];
    uint64_t node_begin = layout_->ByteOffset(v);
    std::byte* row_bytes =
        reinterpret_cast<std::byte*>(sl.out.data() + a.node * dim);
    uint64_t page_begin = a.page * page_bytes;
    uint64_t lo = std::max(node_begin, page_begin);
    uint64_t hi = std::min(node_begin + feat_bytes, page_begin + page_bytes);
    if (zero) {
      std::memset(row_bytes + (lo - node_begin), 0, hi - lo);
    } else {
      std::memcpy(row_bytes + (lo - node_begin),
                  page_buf + (lo - page_begin), hi - lo);
    }
  };
  // Services `page` once through the cache/storage path into the bucket's
  // page buffer (empty in counting mode), charging `slice` and draining
  // `reuses` window pins. Returns false when the bucket must abort
  // (bucket_status_[b] set).
  auto service = [&](uint32_t b, uint64_t page, uint32_t slice,
                     uint32_t reuses, bool* degraded, bool* corrupt) {
    BucketScratch& bs = bucket_scratch_[b];
    GatherCounts gc;
    StorageArray::ReadOutcome oc;
    Status s = array_->ReadPage(page, bs.page_buf.span(), &gc, reuses, &oc);
    if (s.code() == StatusCode::kUnavailable) {
      // Retries exhausted (FAULTS.md): serve the page as zeroes and flag
      // the rows rather than failing the whole gather.
      *degraded = true;
    } else if (s.code() == StatusCode::kDataLoss) {
      // Never verified clean (INTEGRITY.md): same zero-fill degradation,
      // separate accounting.
      *corrupt = true;
    } else if (!s.ok()) {
      bucket_status_[b] = std::move(s);
      return false;
    }
    // Bill the read to this call's receipt; a dead-lettered read's
    // non-CRC penalty is degraded service.
    bs.penalty_ns += oc.penalty_ns;
    bs.crc_ns += oc.crc_ns;
    if (*degraded || *corrupt) bs.degraded_ns += oc.penalty_ns - oc.crc_ns;
    if (oc.served_replica != 0) {
      uint64_t* cells = bucket_failovers_.data() + b * fo_cells;
      ++cells[ssd_array->DeviceFor(page)];
      ++cells[n_ssd + oc.served_replica];
    }
    GatherCounts& cell = bucket_gc_[static_cast<size_t>(b) * num_slices +
                                    slice];
    cell.cache_hits += gc.cache_hits;
    cell.storage_reads += gc.storage_reads;
    return true;
  };

  auto phase2 = [&](size_t b) {
    BucketScratch& bs = bucket_scratch_[b];
    bs.degraded.clear();
    bs.corrupt.clear();
    bs.penalty_ns = bs.crc_ns = bs.degraded_ns = 0;
    bs.page_buf.resize(functional ? page_bytes : 0);
    std::span<const Access> span(seq_.data() + bucket_begin_[b],
                                 bucket_begin_[b + 1] - bucket_begin_[b]);
    if (!coalesce_pages_) {
      for (const Access& a : span) {
        bool degraded = false;
        bool corrupt = false;
        if (!service(static_cast<uint32_t>(b), a.page, a.slice, 1,
                     &degraded, &corrupt)) {
          return;
        }
        if (degraded) bs.degraded.push_back({a.slice, a.node});
        if (corrupt) bs.corrupt.push_back({a.slice, a.node});
        if (functional) scatter(a, bs.page_buf.data(), degraded || corrupt);
      }
      return;
    }
    // Coalescing: group the bucket's canonical sequence by page in
    // first-occurrence order (a pure function of the sequence, so still
    // bit-identical at any thread count), service each distinct page once
    // — charged to the first requester's slice, draining every member's
    // window pin — and fan the payload, or the degraded zero-fill, out to
    // every requesting row. Members are ordered within each group by a
    // counting sort, i.e. they keep their sequence order.
    bs.group_of.Reset(span.size());
    bs.group_pages.clear();
    bs.group_counts.clear();
    for (const Access& a : span) {
      auto [gid, inserted] = bs.group_of.TryEmplace(
          a.page, static_cast<uint32_t>(bs.group_pages.size()));
      if (inserted) {
        bs.group_pages.push_back(a.page);
        bs.group_counts.push_back(0);
      }
      ++bs.group_counts[*gid];
    }
    const size_t num_groups = bs.group_pages.size();
    bs.group_cursor.clear();
    bs.group_cursor.resize(num_groups);
    uint64_t running = 0;
    for (size_t g = 0; g < num_groups; ++g) {
      bs.group_cursor[g] = running;
      running += bs.group_counts[g];
    }
    bs.members.resize(span.size());
    for (uint64_t i = 0; i < span.size(); ++i) {
      bs.members[bs.group_cursor[*bs.group_of.Find(span[i].page)]++] = i;
    }
    // group_cursor[g] is now group g's end offset in members.
    for (size_t g = 0; g < num_groups; ++g) {
      const uint64_t count = bs.group_counts[g];
      const uint64_t begin = bs.group_cursor[g] - count;
      const Access& first = span[bs.members[begin]];
      bool degraded = false;
      bool corrupt = false;
      if (!service(static_cast<uint32_t>(b), bs.group_pages[g], first.slice,
                   static_cast<uint32_t>(count), &degraded, &corrupt)) {
        return;
      }
      // A dead-lettered group charges no traffic counter at all — exactly
      // like the uncoalesced path, where a failed access shows up only in
      // degraded/corrupt_nodes. This keeps total_page_requests() (the
      // accumulator's denominator) identical with coalescing on or off.
      const bool served = !degraded && !corrupt;
      if (served) {
        ++bucket_distinct_[b * num_slices + first.slice];
      }
      for (uint64_t m = 0; m < count; ++m) {
        const Access& a = span[bs.members[begin + m]];
        if (m > 0 && served) ++bucket_coalesced_[b * num_slices + a.slice];
        if (degraded) bs.degraded.push_back({a.slice, a.node});
        if (corrupt) bs.corrupt.push_back({a.slice, a.node});
        if (functional) scatter(a, bs.page_buf.data(), degraded || corrupt);
      }
    }
  };
  if (pool_ != nullptr) {
    pool_->ParallelFor(buckets, phase2);
  } else {
    for (uint32_t b = 0; b < buckets; ++b) phase2(b);
  }

  for (uint32_t b = 0; b < buckets; ++b) {
    if (!bucket_status_[b].ok()) return bucket_status_[b];
  }

  for (uint32_t s = 0; s < num_slices; ++s) {
    per_slice_counts[s].nodes += slices[s].nodes.size();
  }
  for (const ChunkScratch& co : chunks_) {
    for (uint32_t s = 0; s < num_slices; ++s) {
      per_slice_counts[s].cpu_buffer_hits += co.cpu_hits[s];
    }
  }
  for (uint32_t b = 0; b < buckets; ++b) {
    for (uint32_t s = 0; s < num_slices; ++s) {
      const size_t cell = static_cast<size_t>(b) * num_slices + s;
      per_slice_counts[s].gpu_cache_hits += bucket_gc_[cell].cache_hits;
      per_slice_counts[s].storage_reads += bucket_gc_[cell].storage_reads;
      per_slice_counts[s].coalesced_requests += bucket_coalesced_[cell];
      per_slice_counts[s].distinct_pages += bucket_distinct_[cell];
    }
  }
  // A row's pages may land in different buckets, so union the per-bucket
  // degraded/corrupt row ids to count each affected row exactly once, in
  // its own slice. The union is order-independent: the counts are
  // identical at every thread count and with coalescing on or off.
  auto count_union = [&](std::vector<RowId> BucketScratch::* field,
                         uint64_t FeatureGatherCounts::* counter) {
    bool any = false;
    for (const BucketScratch& bs : bucket_scratch_) {
      any |= !(bs.*field).empty();
    }
    if (!any) return;
    merged_rows_.clear();
    for (const BucketScratch& bs : bucket_scratch_) {
      merged_rows_.insert(merged_rows_.end(), (bs.*field).begin(),
                          (bs.*field).end());
    }
    std::sort(merged_rows_.begin(), merged_rows_.end());
    merged_rows_.erase(std::unique(merged_rows_.begin(), merged_rows_.end()),
                       merged_rows_.end());
    for (const RowId& row : merged_rows_) {
      per_slice_counts[row.first].*counter += 1;
    }
  };
  count_union(&BucketScratch::degraded, &FeatureGatherCounts::degraded_nodes);
  count_union(&BucketScratch::corrupt, &FeatureGatherCounts::corrupt_nodes);

  if (receipt == nullptr) return Status::OK();
  for (uint32_t b = 0; b < buckets; ++b) {
    const BucketScratch& bs = bucket_scratch_[b];
    receipt->retry_penalty_ns += bs.penalty_ns;
    receipt->crc_verify_ns += bs.crc_ns;
    receipt->degraded_penalty_ns += bs.degraded_ns;
  }
  if (fo_cells > 0) {
    // Fold every bucket's failover cells into bucket 0's, then name the
    // busiest from-device and to-replica (max_element: ties to the lowest
    // index).
    uint64_t* total = bucket_failovers_.data();
    for (uint32_t b = 1; b < buckets; ++b) {
      for (size_t i = 0; i < fo_cells; ++i) {
        total[i] += bucket_failovers_[b * fo_cells + i];
      }
    }
    uint64_t* to_replica = total + n_ssd;
    receipt->failovers =
        std::accumulate(to_replica, total + fo_cells, uint64_t{0});
    receipt->failover_device =
        static_cast<int>(std::max_element(total, to_replica) - total);
    receipt->failover_replica = static_cast<int>(
        std::max_element(to_replica, total + fo_cells) - to_replica);
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
