// The one-pass GatherGroup against the shard-keyed bucketed gather it
// replaced. ShardReplay below keeps that gather's algorithm, run serially:
// record every access in slice-major node order, bucket it by the cache
// shard that owns its page, then replay the buckets one after another,
// each in its recorded order (grouped by page within the bucket when
// coalescing). Each cache shard sees the same page sequence either way, so
// the two must agree on every observable: payload bytes, per-slice
// counts, the receipt, cache stats, residency and pins, and the storage
// array's totals. ShardReplay does its own cache-then-storage read of each
// page, so the oracle shares no service code with the gatherer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "graph/feature_store.h"
#include "storage/fault_injector.h"
#include "storage/feature_gather.h"
#include "storage/page_integrity.h"
#include "storage/replica_set.h"
#include "storage/software_cache.h"
#include "storage/storage_array.h"

namespace gids::storage {
namespace {

/// Every seventh node is hot: served from host memory, never the cache.
class EverySeventhHot : public HotNodeBuffer {
 public:
  explicit EverySeventhHot(const graph::FeatureStore* fs) : fs_(fs) {}
  bool Contains(graph::NodeId node) const override { return node % 7 == 0; }
  void Fill(graph::NodeId node, std::span<float> out) const override {
    fs_->FillFeature(node, out);
  }

 private:
  const graph::FeatureStore* fs_;
};

/// The deleted parallel gather, serially: see the file comment.
Status ShardReplay(const graph::FeatureStore& fs, StorageArray* ssd,
                   SoftwareCache* cache, const HotNodeBuffer* hot,
                   bool coalesce, std::span<const GatherSlice> slices,
                   std::span<FeatureGatherCounts> per_slice,
                   GatherReceipt* receipt) {
  struct Access {
    uint64_t page;
    uint64_t node;
    uint32_t slice;
  };
  const uint32_t dim = fs.feature_dim();
  const uint64_t page_bytes = fs.page_bytes();
  bool functional = false;
  for (const GatherSlice& sl : slices) functional |= !sl.out.empty();

  // Phase 1: hot rows, and every other access bucketed by cache shard.
  std::vector<std::vector<Access>> buckets(cache->num_shards());
  std::vector<FeatureGatherCounts> counts(slices.size());
  for (uint32_t s = 0; s < slices.size(); ++s) {
    const GatherSlice& sl = slices[s];
    counts[s].nodes = sl.nodes.size();
    for (uint64_t i = 0; i < sl.nodes.size(); ++i) {
      const graph::NodeId v = sl.nodes[i];
      if (v >= fs.num_nodes()) return Status::OutOfRange("bad node");
      const auto range = fs.PagesFor(v);
      if (hot != nullptr && hot->Contains(v)) {
        if (functional) hot->Fill(v, sl.out.subspan(i * dim, dim));
        counts[s].cpu_buffer_hits += range.count();
        continue;
      }
      for (uint64_t page = range.first; page <= range.last; ++page) {
        buckets[cache->ShardFor(page)].push_back(Access{page, i, s});
      }
    }
  }

  // Phase 2: each bucket replayed in order, bucket after bucket.
  std::set<std::pair<uint32_t, uint64_t>> degraded_rows;
  std::set<std::pair<uint32_t, uint64_t>> corrupt_rows;
  std::vector<std::byte> page_buf(functional ? page_bytes : 0);
  std::vector<uint64_t> from_device(ssd->n_ssd(), 0);
  std::vector<uint64_t> to_replica(ReplicaSet::kMaxReplicas, 0);
  GatherReceipt total;
  auto service = [&](uint64_t page, uint32_t slice, uint32_t reuses,
                     bool* failed, bool* is_corrupt) {
    if (cache->Lookup(page, page_buf, reuses)) {
      ++counts[slice].gpu_cache_hits;
      return Status::OK();
    }
    StorageArray::ReadOutcome oc;
    Status st = ssd->ReadPage(page, page_buf, &oc);
    const bool degraded = st.code() == StatusCode::kUnavailable;
    *is_corrupt = st.code() == StatusCode::kDataLoss;
    if (!st.ok() && !degraded && !*is_corrupt) return st;
    *failed = degraded || *is_corrupt;
    if (st.ok()) {
      ++counts[slice].storage_reads;
      cache->Insert(page, page_buf,
                    oc.crc_known ? std::optional<uint32_t>(oc.crc)
                                 : std::nullopt,
                    oc.served_corrupt);
    }
    total.retry_penalty_ns += oc.penalty_ns;
    total.crc_verify_ns += oc.crc_ns;
    if (*failed) total.degraded_penalty_ns += oc.penalty_ns - oc.crc_ns;
    if (oc.served_replica != 0) {
      ++from_device[ssd->DeviceFor(page)];
      ++to_replica[oc.served_replica];
    }
    return Status::OK();
  };
  auto deliver = [&](const Access& a, bool failed, bool is_corrupt) {
    if (failed) {
      (is_corrupt ? corrupt_rows : degraded_rows).insert({a.slice, a.node});
    }
    if (!functional) return;
    const GatherSlice& sl = slices[a.slice];
    const uint64_t node_begin = fs.ByteOffset(sl.nodes[a.node]);
    auto* row = reinterpret_cast<std::byte*>(sl.out.data() + a.node * dim);
    const uint64_t page_begin = a.page * page_bytes;
    const uint64_t lo = std::max(node_begin, page_begin);
    const uint64_t hi = std::min(node_begin + fs.feature_bytes_per_node(),
                                 page_begin + page_bytes);
    if (failed) {
      std::memset(row + (lo - node_begin), 0, hi - lo);
    } else {
      std::memcpy(row + (lo - node_begin),
                  page_buf.data() + (lo - page_begin), hi - lo);
    }
  };
  for (const std::vector<Access>& seq : buckets) {
    if (!coalesce) {
      for (const Access& a : seq) {
        bool failed = false;
        bool is_corrupt = false;
        Status st = service(a.page, a.slice, 1, &failed, &is_corrupt);
        if (!st.ok()) return st;
        deliver(a, failed, is_corrupt);
      }
      continue;
    }
    std::vector<uint64_t> first_seen;
    std::map<uint64_t, std::vector<size_t>> members;
    for (size_t i = 0; i < seq.size(); ++i) {
      std::vector<size_t>& m = members[seq[i].page];
      if (m.empty()) first_seen.push_back(seq[i].page);
      m.push_back(i);
    }
    for (uint64_t page : first_seen) {
      const std::vector<size_t>& m = members[page];
      const Access& first = seq[m.front()];
      bool failed = false;
      bool is_corrupt = false;
      Status st = service(page, first.slice, static_cast<uint32_t>(m.size()),
                          &failed, &is_corrupt);
      if (!st.ok()) return st;
      if (!failed) ++counts[first.slice].distinct_pages;
      for (size_t k = 0; k < m.size(); ++k) {
        const Access& a = seq[m[k]];
        if (k > 0 && !failed) ++counts[a.slice].coalesced_requests;
        deliver(a, failed, is_corrupt);
      }
    }
  }
  for (const auto& row : degraded_rows) ++counts[row.first].degraded_nodes;
  for (const auto& row : corrupt_rows) ++counts[row.first].corrupt_nodes;
  for (size_t s = 0; s < slices.size(); ++s) per_slice[s].Add(counts[s]);
  if (ssd->replica_set() != nullptr) {
    total.failovers =
        std::accumulate(to_replica.begin(), to_replica.end(), uint64_t{0});
    total.failover_device = static_cast<int>(
        std::max_element(from_device.begin(), from_device.end()) -
        from_device.begin());
    total.failover_replica = static_cast<int>(
        std::max_element(to_replica.begin(), to_replica.end()) -
        to_replica.begin());
  }
  *receipt = total;
  return Status::OK();
}

struct OracleConfig {
  bool coalesce = false;
  bool payload = true;
  uint32_t dim = 256;  // 4 nodes per 4 KiB page
  uint32_t shards = 4;
  int n_ssd = 1;
  FaultOptions faults;
  IntegrityOptions integrity;
  int replication_factor = 1;
};

/// One storage stack (array and cache) over a shared layout.
struct Stack {
  Stack(const graph::FeatureStore& fs, const OracleConfig& cfg) {
    auto dev = std::make_unique<FunctionBlockDevice>(
        fs.num_pages(), fs.page_bytes(),
        [&fs](uint64_t lba, std::span<std::byte> out) {
          fs.FillPage(lba, out);
        });
    array = std::make_unique<StorageArray>(
        std::move(dev), sim::SsdSpec::IntelOptane(), cfg.n_ssd);
    RetryPolicy retry;
    retry.max_retries = 2;
    array->EnableFaultInjection(cfg.faults, retry);
    array->EnableIntegrity(cfg.integrity);
    if (cfg.replication_factor > 1) {
      ReplicaOptions replicas;
      replicas.replication_factor = cfg.replication_factor;
      array->EnableReplication(replicas);
    }
    cache = std::make_unique<SoftwareCache>(
        48 * fs.page_bytes(), fs.page_bytes(), fs.num_pages(),
        /*seed=*/0xcac4e, /*store_payloads=*/cfg.payload, cfg.shards);
  }

  std::unique_ptr<StorageArray> array;
  std::unique_ptr<SoftwareCache> cache;
};

/// Deterministic node list: half its draws from a small hot range, so
/// rows repeat and share pages within and across slices.
std::vector<graph::NodeId> NodeList(graph::NodeId num_nodes, size_t count,
                                    uint64_t seed) {
  std::vector<graph::NodeId> nodes;
  uint64_t x = seed;
  for (size_t i = 0; i < count; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const graph::NodeId range = i % 2 == 0 ? num_nodes : num_nodes / 16 + 1;
    nodes.push_back(static_cast<graph::NodeId>((x >> 33) % range));
  }
  return nodes;
}

void ExpectCountsEqual(const FeatureGatherCounts& a,
                       const FeatureGatherCounts& b, int call, size_t slice) {
  SCOPED_TRACE(::testing::Message() << "call " << call << " slice " << slice);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.cpu_buffer_hits, b.cpu_buffer_hits);
  EXPECT_EQ(a.gpu_cache_hits, b.gpu_cache_hits);
  EXPECT_EQ(a.storage_reads, b.storage_reads);
  EXPECT_EQ(a.coalesced_requests, b.coalesced_requests);
  EXPECT_EQ(a.distinct_pages, b.distinct_pages);
  EXPECT_EQ(a.degraded_nodes, b.degraded_nodes);
  EXPECT_EQ(a.corrupt_nodes, b.corrupt_nodes);
}

/// Runs eight three-slice GatherGroup calls through the one-pass gatherer
/// and through ShardReplay on twin stacks, registering each call's page
/// accesses as window pins first (as the loader does), and compares every
/// observable after each call and at the end.
void ExpectMatchesShardReplay(const OracleConfig& cfg) {
  constexpr graph::NodeId kNodes = 1024;
  constexpr int kCalls = 8;
  graph::FeatureStore fs(kNodes, cfg.dim);
  EverySeventhHot hot(&fs);
  Stack one_pass(fs, cfg);
  Stack replay(fs, cfg);
  FeatureGatherer gatherer(&fs, one_pass.array.get(), one_pass.cache.get(),
                           &hot, cfg.coalesce);

  FeatureGatherCounts run_totals;
  for (int call = 0; call < kCalls; ++call) {
    std::vector<std::vector<graph::NodeId>> lists;
    for (uint64_t s = 0; s < 3; ++s) {
      lists.push_back(NodeList(kNodes, 120, 1000 * call + s));
    }
    for (const auto& list : lists) {
      for (graph::NodeId v : list) {
        if (hot.Contains(v)) continue;
        const auto range = fs.PagesFor(v);
        for (uint64_t p = range.first; p <= range.last; ++p) {
          one_pass.cache->AddFutureReuse(p, 1);
          replay.cache->AddFutureReuse(p, 1);
        }
      }
    }
    std::vector<std::vector<float>> out_a(lists.size());
    std::vector<std::vector<float>> out_b(lists.size());
    std::vector<GatherSlice> slices_a;
    std::vector<GatherSlice> slices_b;
    for (size_t s = 0; s < lists.size(); ++s) {
      if (cfg.payload) {
        out_a[s].assign(lists[s].size() * cfg.dim, -1.0f);
        out_b[s].assign(lists[s].size() * cfg.dim, -1.0f);
      }
      slices_a.push_back({lists[s], std::span<float>(out_a[s])});
      slices_b.push_back({lists[s], std::span<float>(out_b[s])});
    }
    std::vector<FeatureGatherCounts> counts_a(lists.size());
    std::vector<FeatureGatherCounts> counts_b(lists.size());
    GatherReceipt receipt_a;
    GatherReceipt receipt_b;
    ASSERT_TRUE(gatherer.GatherGroup(slices_a, counts_a, &receipt_a).ok());
    ASSERT_TRUE(ShardReplay(fs, replay.array.get(), replay.cache.get(), &hot,
                            cfg.coalesce, slices_b, counts_b, &receipt_b)
                    .ok());
    EXPECT_EQ(out_a, out_b) << "call " << call;
    for (size_t s = 0; s < lists.size(); ++s) {
      ExpectCountsEqual(counts_a[s], counts_b[s], call, s);
      run_totals.Add(counts_a[s]);
    }
    EXPECT_TRUE(receipt_a == receipt_b) << "call " << call;
    EXPECT_TRUE(one_pass.cache->stats() == replay.cache->stats())
        << "call " << call;
  }
  for (uint64_t p = 0; p < fs.num_pages(); ++p) {
    ASSERT_EQ(one_pass.cache->Contains(p), replay.cache->Contains(p))
        << "page " << p;
    ASSERT_EQ(one_pass.cache->FutureReuseCount(p),
              replay.cache->FutureReuseCount(p))
        << "page " << p;
  }
  const StorageArray& a = *one_pass.array;
  const StorageArray& b = *replay.array;
  EXPECT_EQ(a.total_reads(), b.total_reads());
  EXPECT_EQ(a.retries_total(), b.retries_total());
  EXPECT_EQ(a.dead_letters_total(), b.dead_letters_total());
  EXPECT_EQ(a.retry_penalty_ns_total(), b.retry_penalty_ns_total());
  EXPECT_EQ(a.checksum_mismatches_total(), b.checksum_mismatches_total());
  EXPECT_EQ(a.data_loss_total(), b.data_loss_total());
  EXPECT_EQ(a.replica_failovers_total(), b.replica_failovers_total());
  // The run reached the paths it claims to compare.
  EXPECT_GT(run_totals.cpu_buffer_hits, 0u);
  EXPECT_GT(run_totals.gpu_cache_hits, 0u);
  EXPECT_GT(run_totals.storage_reads, 0u);
  EXPECT_GT(one_pass.cache->stats().evictions, 0u);
  EXPECT_EQ(run_totals.coalesced_requests > 0, cfg.coalesce);
}

TEST(GatherOracleTest, UncoalescedMatchesShardReplay) {
  for (bool payload : {true, false}) {
    SCOPED_TRACE(payload ? "payload" : "counting");
    OracleConfig cfg;
    cfg.payload = payload;
    ExpectMatchesShardReplay(cfg);
  }
}

TEST(GatherOracleTest, CoalescedMatchesShardReplay) {
  for (bool payload : {true, false}) {
    SCOPED_TRACE(payload ? "payload" : "counting");
    OracleConfig cfg;
    cfg.coalesce = true;
    cfg.payload = payload;
    ExpectMatchesShardReplay(cfg);
  }
}

// Rows spanning two pages (dim 1536 = 6 KiB) put one row's pages in
// different shards, and every slice repeats the hot range, so coalescing
// folds across slices.
TEST(GatherOracleTest, MultiSliceGroupsMatchShardReplay) {
  for (bool coalesce : {false, true}) {
    SCOPED_TRACE(coalesce ? "coalesced" : "uncoalesced");
    OracleConfig cfg;
    cfg.coalesce = coalesce;
    cfg.dim = 1536;
    ExpectMatchesShardReplay(cfg);
  }
}

TEST(GatherOracleTest, ShardSweepsMatchShardReplay) {
  for (uint32_t shards : {1u, 4u, 8u}) {
    for (bool coalesce : {false, true}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards " << shards << " coalesce " << coalesce);
      OracleConfig cfg;
      cfg.shards = shards;
      cfg.coalesce = coalesce;
      ExpectMatchesShardReplay(cfg);
    }
  }
}

// Dead-lettered and never-verified pages degrade rows; a row whose two
// pages fail separately is still counted once.
TEST(GatherOracleTest, FaultsAndCorruptionMatchShardReplay) {
  for (bool coalesce : {false, true}) {
    for (bool payload : {true, false}) {
      SCOPED_TRACE(::testing::Message()
                   << "coalesce " << coalesce << " payload " << payload);
      OracleConfig cfg;
      cfg.coalesce = coalesce;
      cfg.payload = payload;
      cfg.dim = 1536;
      cfg.faults.fault_rate = 0.3;
      cfg.faults.corruption_rate = 0.2;
      cfg.integrity.verify_reads = true;
      ExpectMatchesShardReplay(cfg);
    }
  }
}

// Reads of the offline device fail over to the second replica, so the
// receipts carry failovers and their from-device and to-replica.
TEST(GatherOracleTest, ReplicatedOfflineDeviceMatchesShardReplay) {
  for (bool coalesce : {false, true}) {
    SCOPED_TRACE(coalesce ? "coalesced" : "uncoalesced");
    OracleConfig cfg;
    cfg.coalesce = coalesce;
    cfg.n_ssd = 3;
    cfg.replication_factor = 2;
    cfg.faults.offline_devices = {1};
    cfg.faults.fault_rate = 0.05;
    ExpectMatchesShardReplay(cfg);
  }
}

}  // namespace
}  // namespace gids::storage
