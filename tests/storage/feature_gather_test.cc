#include "storage/feature_gather.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "graph/feature_store.h"
#include "storage/bam_array.h"
#include "storage/software_cache.h"

namespace gids::storage {
namespace {

struct GatherRig {
  explicit GatherRig(uint32_t dim, graph::NodeId nodes = 100,
                     uint64_t cache_bytes = 16 * 4096,
                     const HotNodeBuffer* hot = nullptr)
      : fs(nodes, dim) {
    auto dev = std::make_unique<FunctionBlockDevice>(
        fs.num_pages(), fs.page_bytes(),
        [this](uint64_t lba, std::span<std::byte> out) {
          fs.FillPage(lba, out);
        });
    array = std::make_unique<StorageArray>(std::move(dev),
                                           sim::SsdSpec::IntelOptane(), 1);
    cache = std::make_unique<SoftwareCache>(cache_bytes, fs.page_bytes());
    bam = std::make_unique<BamArray>(array.get(), cache.get());
    gatherer = std::make_unique<FeatureGatherer>(&fs, bam.get(), hot);
  }

  graph::FeatureStore fs;
  std::unique_ptr<StorageArray> array;
  std::unique_ptr<SoftwareCache> cache;
  std::unique_ptr<BamArray> bam;
  std::unique_ptr<FeatureGatherer> gatherer;
};

// A trivial hot buffer pinning even-numbered nodes.
class EvenHotBuffer : public HotNodeBuffer {
 public:
  explicit EvenHotBuffer(const graph::FeatureStore* fs) : fs_(fs) {}
  bool Contains(graph::NodeId node) const override { return node % 2 == 0; }
  void Fill(graph::NodeId node, std::span<float> out) const override {
    fs_->FillFeature(node, out);
  }

 private:
  const graph::FeatureStore* fs_;
};

class GatherFidelityTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(GatherFidelityTest, BytesMatchGroundTruth) {
  // End-to-end byte fidelity: features gathered through device + cache
  // must equal the FeatureStore's ground truth for every layout class.
  GatherRig rig(GetParam());
  std::vector<graph::NodeId> nodes = {0, 17, 3, 17, 99, 50, 1};
  FeatureGatherCounts counts;
  auto gathered = rig.gatherer->Gather(nodes, &counts);
  ASSERT_TRUE(gathered.ok());
  const uint32_t dim = rig.fs.feature_dim();
  std::vector<float> expected(dim);
  for (size_t i = 0; i < nodes.size(); ++i) {
    rig.fs.FillFeature(nodes[i], expected);
    for (uint32_t j = 0; j < dim; ++j) {
      ASSERT_EQ((*gathered)[i * dim + j], expected[j])
          << "node " << nodes[i] << " elem " << j;
    }
  }
  EXPECT_EQ(counts.nodes, nodes.size());
}

INSTANTIATE_TEST_SUITE_P(PaperDims, GatherFidelityTest,
                         ::testing::Values(128, 768, 1024));

TEST(FeatureGatherTest, RepeatGatherHitsCache) {
  GatherRig rig(1024);
  std::vector<graph::NodeId> nodes = {1, 2, 3, 4};
  FeatureGatherCounts first;
  ASSERT_TRUE(rig.gatherer->Gather(nodes, &first).ok());
  EXPECT_EQ(first.storage_reads, 4u);
  EXPECT_EQ(first.gpu_cache_hits, 0u);
  FeatureGatherCounts second;
  ASSERT_TRUE(rig.gatherer->Gather(nodes, &second).ok());
  EXPECT_EQ(second.storage_reads, 0u);
  EXPECT_EQ(second.gpu_cache_hits, 4u);
}

TEST(FeatureGatherTest, SubPageNodesShareAPage) {
  // dim 128: 8 nodes per page; gathering 8 page-mates costs one storage
  // read plus seven cache hits.
  GatherRig rig(128);
  std::vector<graph::NodeId> nodes(8);
  std::iota(nodes.begin(), nodes.end(), 0u);
  FeatureGatherCounts counts;
  ASSERT_TRUE(rig.gatherer->Gather(nodes, &counts).ok());
  EXPECT_EQ(counts.storage_reads, 1u);
  EXPECT_EQ(counts.gpu_cache_hits, 7u);
}

TEST(FeatureGatherTest, PageSpanningNodesCostMore) {
  // dim 768: pages-per-node = 1.5, so 4 aligned nodes touch 6 pages.
  GatherRig rig(768);
  std::vector<graph::NodeId> nodes = {0, 1, 2, 3};
  FeatureGatherCounts counts;
  ASSERT_TRUE(rig.gatherer->Gather(nodes, &counts).ok());
  EXPECT_EQ(counts.total_page_requests(), 6u);
}

TEST(FeatureGatherTest, HotBufferRedirects) {
  graph::FeatureStore probe(100, 1024);
  EvenHotBuffer hot(&probe);
  GatherRig rig(1024, 100, 16 * 4096, &hot);
  std::vector<graph::NodeId> nodes = {0, 1, 2, 3};
  FeatureGatherCounts counts;
  auto gathered = rig.gatherer->Gather(nodes, &counts);
  ASSERT_TRUE(gathered.ok());
  EXPECT_EQ(counts.cpu_buffer_hits, 2u);
  EXPECT_EQ(counts.storage_reads, 2u);
  // Hot-buffer bytes are also correct.
  std::vector<float> expected(1024);
  rig.fs.FillFeature(0, expected);
  for (uint32_t j = 0; j < 1024; ++j) {
    ASSERT_EQ((*gathered)[j], expected[j]);
  }
}

TEST(FeatureGatherTest, HotNodesNeverPolluteGpuCache) {
  graph::FeatureStore probe(100, 1024);
  EvenHotBuffer hot(&probe);
  GatherRig rig(1024, 100, 16 * 4096, &hot);
  std::vector<graph::NodeId> nodes = {0, 2, 4, 6};
  FeatureGatherCounts counts;
  ASSERT_TRUE(rig.gatherer->Gather(nodes, &counts).ok());
  EXPECT_EQ(rig.cache->resident_lines(), 0u);
}

TEST(FeatureGatherTest, OutOfRangeNode) {
  GatherRig rig(128);
  std::vector<graph::NodeId> nodes = {1000};
  FeatureGatherCounts counts;
  std::vector<float> out(128);
  EXPECT_EQ(rig.gatherer->Gather(nodes, std::span<float>(out), &counts).code(),
            StatusCode::kOutOfRange);
}

TEST(FeatureGatherTest, SmallOutputBufferRejected) {
  GatherRig rig(128);
  std::vector<graph::NodeId> nodes = {1, 2};
  std::vector<float> out(128);  // room for one node only
  FeatureGatherCounts counts;
  EXPECT_EQ(rig.gatherer->Gather(nodes, std::span<float>(out), &counts).code(),
            StatusCode::kInvalidArgument);
}

TEST(FeatureGatherTest, CountsOnlyMatchesFullGather) {
  // The counting-mode path must make identical traffic decisions.
  GatherRig full_rig(1024, 200, 8 * 4096);
  GatherRig count_rig(1024, 200, 8 * 4096);
  Rng rng(3);
  for (int round = 0; round < 20; ++round) {
    std::vector<graph::NodeId> nodes;
    for (int i = 0; i < 16; ++i) {
      nodes.push_back(static_cast<graph::NodeId>(rng.UniformInt(200)));
    }
    FeatureGatherCounts a;
    FeatureGatherCounts b;
    ASSERT_TRUE(full_rig.gatherer->Gather(nodes, &a).ok());
    ASSERT_TRUE(count_rig.gatherer->Gather(nodes, {}, &b).ok());
    ASSERT_EQ(a.gpu_cache_hits, b.gpu_cache_hits) << "round " << round;
    ASSERT_EQ(a.storage_reads, b.storage_reads) << "round " << round;
  }
}

// --- Page coalescing (DESIGN.md §10). ---------------------------------

TEST(CoalescingGatherTest, RepeatedNodeServedOnce) {
  // dim 1024: node i occupies exactly page i. The same node three times
  // costs one storage round-trip; the two duplicates are folded away, not
  // served as cache hits.
  GatherRig rig(1024);
  rig.gatherer->set_coalesce_pages(true);
  std::vector<graph::NodeId> nodes = {5, 5, 5};
  FeatureGatherCounts counts;
  auto out = rig.gatherer->Gather(nodes, &counts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(counts.storage_reads, 1u);
  EXPECT_EQ(counts.gpu_cache_hits, 0u);
  EXPECT_EQ(counts.coalesced_requests, 2u);
  EXPECT_EQ(counts.distinct_pages, 1u);
  EXPECT_EQ(counts.total_page_requests(), 3u);
  EXPECT_EQ(counts.serviced_page_requests(), 1u);
  // The one payload fans out to every requesting row.
  std::vector<float> expected(1024);
  rig.fs.FillFeature(5, expected);
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (uint32_t j = 0; j < 1024; ++j) {
      ASSERT_EQ((*out)[i * 1024 + j], expected[j]) << "row " << i;
    }
  }
}

TEST(CoalescingGatherTest, PageSpanningRowsShareBoundaryPages) {
  // dim 768: nodes 0..3 generate 6 page accesses over 3 distinct pages
  // (each interior page is shared by two adjacent rows). Coalescing must
  // service each page once and still fill both rows' slices correctly.
  GatherRig rig(768);
  rig.gatherer->set_coalesce_pages(true);
  std::vector<graph::NodeId> nodes = {0, 1, 2, 3};
  FeatureGatherCounts counts;
  auto out = rig.gatherer->Gather(nodes, &counts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(counts.total_page_requests(), 6u);
  EXPECT_EQ(counts.serviced_page_requests(), 3u);
  EXPECT_EQ(counts.coalesced_requests, 3u);
  EXPECT_EQ(counts.distinct_pages, 3u);

  // Byte-identical to the uncoalesced gather of the same batch.
  GatherRig plain(768);
  FeatureGatherCounts pc;
  auto pout = plain.gatherer->Gather(nodes, &pc);
  ASSERT_TRUE(pout.ok());
  EXPECT_EQ(*out, *pout);
  EXPECT_EQ(pc.total_page_requests(), counts.total_page_requests());
  EXPECT_EQ(pc.coalesced_requests, 0u);
}

TEST(CoalescingGatherTest, OffByDefaultAndCountersStayZero) {
  GatherRig rig(128);
  EXPECT_FALSE(rig.gatherer->coalesce_pages());
  std::vector<graph::NodeId> nodes = {0, 1, 0, 9, 9, 9};
  FeatureGatherCounts counts;
  ASSERT_TRUE(rig.gatherer->Gather(nodes, &counts).ok());
  EXPECT_EQ(counts.coalesced_requests, 0u);
  EXPECT_EQ(counts.distinct_pages, 0u);
  EXPECT_EQ(counts.total_page_requests(), counts.serviced_page_requests());
}

TEST(CoalescingGatherTest, CountsOnlyMatchesFullGather) {
  GatherRig full_rig(1024, 200, 8 * 4096);
  GatherRig count_rig(1024, 200, 8 * 4096);
  full_rig.gatherer->set_coalesce_pages(true);
  count_rig.gatherer->set_coalesce_pages(true);
  Rng rng(11);
  for (int round = 0; round < 20; ++round) {
    std::vector<graph::NodeId> nodes;
    for (int i = 0; i < 16; ++i) {
      nodes.push_back(static_cast<graph::NodeId>(rng.UniformInt(200)));
    }
    FeatureGatherCounts a;
    FeatureGatherCounts b;
    ASSERT_TRUE(full_rig.gatherer->Gather(nodes, &a).ok());
    ASSERT_TRUE(count_rig.gatherer->Gather(nodes, {}, &b).ok());
    ASSERT_EQ(a.gpu_cache_hits, b.gpu_cache_hits) << "round " << round;
    ASSERT_EQ(a.storage_reads, b.storage_reads) << "round " << round;
    ASSERT_EQ(a.coalesced_requests, b.coalesced_requests) << "round " << round;
    ASSERT_EQ(a.distinct_pages, b.distinct_pages) << "round " << round;
  }
}

TEST(GatherGroupTest, MatchesPerSliceGathersWhenCoalescingOff) {
  // With coalescing off, one grouped call over two slices is bit-identical
  // (bytes and per-slice counts) to two sequential Gather calls.
  GatherRig grouped(1024, 100, 8 * 4096);
  GatherRig sequential(1024, 100, 8 * 4096);
  std::vector<graph::NodeId> first = {3, 7, 3, 50};
  std::vector<graph::NodeId> second = {7, 12, 3};
  const uint32_t dim = 1024;

  std::vector<float> out_a(first.size() * dim);
  std::vector<float> out_b(second.size() * dim);
  std::vector<GatherSlice> slices = {{first, std::span<float>(out_a)},
                                     {second, std::span<float>(out_b)}};
  std::vector<FeatureGatherCounts> per_slice(2);
  ASSERT_TRUE(grouped.gatherer->GatherGroup(slices, per_slice).ok());

  FeatureGatherCounts ca, cb;
  auto ref_a = sequential.gatherer->Gather(first, &ca);
  auto ref_b = sequential.gatherer->Gather(second, &cb);
  ASSERT_TRUE(ref_a.ok());
  ASSERT_TRUE(ref_b.ok());
  EXPECT_EQ(out_a, *ref_a);
  EXPECT_EQ(out_b, *ref_b);
  EXPECT_EQ(per_slice[0].storage_reads, ca.storage_reads);
  EXPECT_EQ(per_slice[0].gpu_cache_hits, ca.gpu_cache_hits);
  EXPECT_EQ(per_slice[1].storage_reads, cb.storage_reads);
  EXPECT_EQ(per_slice[1].gpu_cache_hits, cb.gpu_cache_hits);
  EXPECT_EQ(per_slice[0].nodes, first.size());
  EXPECT_EQ(per_slice[1].nodes, second.size());
}

TEST(GatherGroupTest, CoalescesAcrossSlices) {
  // The accumulator-merged case: the same node in two merged iterations
  // costs one round-trip. The serviced read is charged to the slice of the
  // first requester; the later slice books a coalesced request.
  GatherRig rig(1024);
  rig.gatherer->set_coalesce_pages(true);
  std::vector<graph::NodeId> first = {7};
  std::vector<graph::NodeId> second = {7};
  std::vector<float> out_a(1024);
  std::vector<float> out_b(1024);
  std::vector<GatherSlice> slices = {{first, std::span<float>(out_a)},
                                     {second, std::span<float>(out_b)}};
  std::vector<FeatureGatherCounts> per_slice(2);
  ASSERT_TRUE(rig.gatherer->GatherGroup(slices, per_slice).ok());

  EXPECT_EQ(per_slice[0].storage_reads, 1u);
  EXPECT_EQ(per_slice[0].distinct_pages, 1u);
  EXPECT_EQ(per_slice[0].coalesced_requests, 0u);
  EXPECT_EQ(per_slice[1].storage_reads, 0u);
  EXPECT_EQ(per_slice[1].gpu_cache_hits, 0u);
  EXPECT_EQ(per_slice[1].coalesced_requests, 1u);
  EXPECT_EQ(rig.array->total_reads(), 1u);

  std::vector<float> expected(1024);
  rig.fs.FillFeature(7, expected);
  EXPECT_EQ(out_a, expected);
  EXPECT_EQ(out_b, expected);
}

TEST(GatherGroupTest, RejectsMixedModesAndBadSizes) {
  GatherRig rig(128);
  std::vector<graph::NodeId> nodes = {1, 2};
  std::vector<float> out(2 * 128);
  std::vector<GatherSlice> mixed = {{nodes, std::span<float>(out)},
                                    {nodes, {}}};
  std::vector<FeatureGatherCounts> per_slice(2);
  EXPECT_EQ(rig.gatherer->GatherGroup(mixed, per_slice).code(),
            StatusCode::kInvalidArgument);

  std::vector<float> small(128);  // room for one of the two nodes
  std::vector<GatherSlice> short_buf = {{nodes, std::span<float>(small)}};
  std::vector<FeatureGatherCounts> one(1);
  EXPECT_EQ(rig.gatherer->GatherGroup(short_buf, one).code(),
            StatusCode::kInvalidArgument);

  std::vector<GatherSlice> ok_slices = {{nodes, std::span<float>(out)}};
  EXPECT_EQ(rig.gatherer->GatherGroup(ok_slices, per_slice).code(),
            StatusCode::kInvalidArgument);  // counts span size mismatch
}

TEST(GatherCostTest, SplitsKernelComponentsIntoExactShares) {
  const sim::SystemModel system(
      sim::SystemConfig::Paper(sim::SsdSpec::IntelOptane()));
  FeatureGatherCounts counts;
  counts.gpu_cache_hits = 7;
  counts.cpu_buffer_hits = 5;
  counts.storage_reads = 11;
  counts.coalesced_requests = 3;  // rides a sibling's read: no queue slot
  GatherReceipt receipt;
  receipt.retry_penalty_ns = 1000;
  receipt.crc_verify_ns = 101;
  receipt.degraded_penalty_ns = 400;
  constexpr size_t kMembers = 3;
  const GatherCost cost = CostGather(system, counts, 4096, receipt,
                                     /*outstanding_cap=*/8,
                                     /*mutation_ns=*/50, kMembers);

  sim::AggregationCounts ac;
  ac.gpu_cache_hits = 7;
  ac.cpu_buffer_hits = 5;
  ac.ssd_reads = 11;
  ac.page_bytes = 4096;
  ac.outstanding_accesses = 8;
  const sim::AggregationTiming timing =
      sim::ComputeAggregationTiming(system, ac);
  EXPECT_EQ(cost.timing.total_ns, timing.total_ns);
  EXPECT_EQ(cost.timing.ssd_ns, timing.ssd_ns);
  EXPECT_EQ(cost.kernel_ns, timing.total_ns + 1000 + 50);
  EXPECT_EQ(cost.kernel.storage_ns, timing.ssd_ns);
  EXPECT_EQ(cost.kernel.retry_backoff_ns, 1000 - 101 - 400);
  EXPECT_EQ(cost.kernel.crc_verify_ns, 101);
  EXPECT_EQ(cost.kernel.degraded_fill_ns, 400);
  EXPECT_EQ(cost.kernel.mutation_ns, 50);

  // Member shares sum to each component exactly; the residue goes to the
  // first members, one ns each (101 ns = 34 + 34 + 33).
  obs::IterationLedger sum;
  for (size_t i = 0; i < kMembers; ++i) {
    const obs::IterationLedger member = cost.MemberLedger(i);
    EXPECT_EQ(member.sampling_ns, 0);
    EXPECT_EQ(member.training_ns, 0);
    EXPECT_EQ(member.overlap_credit_ns, 0);
    sum.Add(member);
  }
  for (int c = 0; c < obs::IterationLedger::kNumComponents; ++c) {
    EXPECT_EQ(sum.component(c), cost.kernel.component(c))
        << obs::IterationLedger::ComponentName(c);
  }
  EXPECT_EQ(cost.MemberLedger(0).crc_verify_ns, 34);
  EXPECT_EQ(cost.MemberLedger(1).crc_verify_ns, 34);
  EXPECT_EQ(cost.MemberLedger(2).crc_verify_ns, 33);
}

TEST(BamArrayTest, CachelessArrayAlwaysReadsStorage) {
  graph::FeatureStore fs(10, 1024);
  auto dev = std::make_unique<FunctionBlockDevice>(
      fs.num_pages(), fs.page_bytes(),
      [&fs](uint64_t lba, std::span<std::byte> out) { fs.FillPage(lba, out); });
  StorageArray arr(std::move(dev), sim::SsdSpec::IntelOptane(), 1);
  BamArray bam(&arr, nullptr);
  std::vector<std::byte> out(4096);
  GatherCounts counts;
  ASSERT_TRUE(bam.ReadPage(3, out, &counts).ok());
  ASSERT_TRUE(bam.ReadPage(3, out, &counts).ok());
  EXPECT_EQ(counts.storage_reads, 2u);
  EXPECT_EQ(counts.cache_hits, 0u);
}

}  // namespace
}  // namespace gids::storage
