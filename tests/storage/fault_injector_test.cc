#include "storage/fault_injector.h"

#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "core/gids_loader.h"
#include "graph/feature_store.h"
#include "obs/metric_registry.h"
#include "storage/feature_gather.h"
#include "storage/software_cache.h"
#include "storage/storage_array.h"
#include "tests/test_util.h"

namespace gids::storage {
namespace {

// 64 nodes x 1024 floats over 4 KiB pages: node i occupies exactly page i,
// so degraded-node counts can be predicted from page-level fault decisions.
struct FaultRig {
  FaultRig(const FaultOptions& faults, const RetryPolicy& retry,
           int n_ssd = 1, uint32_t shards = 0)
      : fs(64, 1024) {
    auto dev = std::make_unique<FunctionBlockDevice>(
        fs.num_pages(), fs.page_bytes(),
        [this](uint64_t lba, std::span<std::byte> out) {
          fs.FillPage(lba, out);
        });
    array = std::make_unique<StorageArray>(std::move(dev),
                                           sim::SsdSpec::IntelOptane(), n_ssd);
    array->EnableFaultInjection(faults, retry);
    cache = std::make_unique<SoftwareCache>(16 * 4096, 4096, fs.num_pages(),
                                            0xcac4e, /*store_payloads=*/true,
                                            shards);
    gatherer =
        std::make_unique<FeatureGatherer>(&fs, array.get(), cache.get());
  }

  graph::FeatureStore fs;
  std::unique_ptr<StorageArray> array;
  std::unique_ptr<SoftwareCache> cache;
  std::unique_ptr<FeatureGatherer> gatherer;
};

std::vector<graph::NodeId> AllNodes() {
  std::vector<graph::NodeId> nodes(64);
  for (size_t i = 0; i < nodes.size(); ++i) {
    nodes[i] = static_cast<graph::NodeId>(i);
  }
  return nodes;
}

TEST(RetryPolicyTest, BackoffIsExponentialAndCapped) {
  RetryPolicy p;
  p.backoff_initial_ns = 20 * kNsPerUs;
  p.backoff_cap_ns = 100 * kNsPerUs;
  EXPECT_EQ(p.BackoffNs(0), 20 * kNsPerUs);
  EXPECT_EQ(p.BackoffNs(1), 40 * kNsPerUs);
  EXPECT_EQ(p.BackoffNs(2), 80 * kNsPerUs);
  EXPECT_EQ(p.BackoffNs(3), 100 * kNsPerUs);   // capped
  EXPECT_EQ(p.BackoffNs(30), 100 * kNsPerUs);  // no overflow at high attempts
}

TEST(FaultInjectorTest, DecisionsAreDeterministicPerSeed) {
  FaultOptions fo;
  fo.fault_rate = 0.3;
  fo.fault_seed = 7;
  RetryPolicy rp;
  FaultInjector a(fo, rp), b(fo, rp);
  fo.fault_seed = 8;
  FaultInjector c(fo, rp);
  bool any_fault = false, seeds_differ = false;
  for (uint64_t page = 0; page < 256; ++page) {
    for (uint32_t attempt = 0; attempt < 4; ++attempt) {
      auto oa = a.Peek(page, 0, attempt, 11000);
      auto ob = b.Peek(page, 0, attempt, 11000);
      auto oc = c.Peek(page, 0, attempt, 11000);
      EXPECT_EQ(static_cast<int>(oa.outcome), static_cast<int>(ob.outcome));
      any_fault |= oa.outcome == FaultInjector::Outcome::kTransient;
      seeds_differ |= oa.outcome != oc.outcome;
    }
  }
  EXPECT_TRUE(any_fault);
  EXPECT_TRUE(seeds_differ);
}

TEST(FaultInjectorTest, OfflineDeviceAlwaysFails) {
  FaultOptions fo;
  fo.offline_devices = {1};
  RetryPolicy rp;
  FaultInjector inj(fo, rp);
  for (uint32_t attempt = 0; attempt < 8; ++attempt) {
    EXPECT_EQ(static_cast<int>(inj.Peek(3, 1, attempt, 11000).outcome),
              static_cast<int>(FaultInjector::Outcome::kOffline));
    EXPECT_EQ(static_cast<int>(inj.Peek(2, 0, attempt, 11000).outcome),
              static_cast<int>(FaultInjector::Outcome::kOk));
  }
}

TEST(FaultInjectorTest, SpikePastTimeoutBecomesTimeout) {
  FaultOptions fo;
  fo.latency_spike_rate = 1.0;  // every attempt spikes
  fo.latency_spike_ns = 10 * kNsPerMs;
  RetryPolicy rp;
  rp.timeout_ns = 1 * kNsPerMs;
  FaultInjector inj(fo, rp);
  auto a = inj.Peek(0, 0, 0, 11000);
  EXPECT_EQ(static_cast<int>(a.outcome),
            static_cast<int>(FaultInjector::Outcome::kTimeout));
  // A spike that fits under the timeout is just a slow success.
  rp.timeout_ns = 100 * kNsPerMs;
  FaultInjector slow(fo, rp);
  a = slow.Peek(0, 0, 0, 11000);
  EXPECT_EQ(static_cast<int>(a.outcome),
            static_cast<int>(FaultInjector::Outcome::kOk));
  EXPECT_EQ(a.extra_ns, 10 * kNsPerMs);
}

// (a) Bounded retries then success leaves the gathered bytes bit-identical
// to the fault-free run.
TEST(FaultRetryTest, RecoveredRunBitIdenticalToFaultFree) {
  RetryPolicy rp;
  rp.max_retries = 8;  // deep enough that no page exhausts at rate 0.3
  FaultOptions fo;
  fo.fault_rate = 0.3;
  FaultRig faulty(fo, rp);
  FaultRig clean(FaultOptions{}, RetryPolicy{});
  ASSERT_EQ(clean.array->fault_injector(), nullptr);

  auto nodes = AllNodes();
  FeatureGatherCounts fc, cc;
  auto faulty_out = faulty.gatherer->Gather(nodes, &fc);
  auto clean_out = clean.gatherer->Gather(nodes, &cc);
  ASSERT_TRUE(faulty_out.ok());
  ASSERT_TRUE(clean_out.ok());
  ASSERT_EQ(faulty.array->dead_letters_total(), 0u)
      << "seed produced an exhausted page; test premise broken";
  EXPECT_EQ(fc.degraded_nodes, 0u);
  EXPECT_GT(faulty.array->retries_total(), 0u);
  EXPECT_EQ(*faulty_out, *clean_out);
  // Traffic counts are fault-invariant: retries re-ring doorbells but the
  // successful read is counted once.
  EXPECT_EQ(fc.storage_reads, cc.storage_reads);
  EXPECT_EQ(fc.gpu_cache_hits, cc.gpu_cache_hits);
}

// (b) Exhausted retries produce exact degraded_nodes counts and zero-filled
// rows, and never poison the cache.
TEST(FaultRetryTest, ExhaustedRetriesDegradeEveryNode) {
  RetryPolicy rp;
  rp.max_retries = 2;
  FaultOptions fo;
  fo.fault_rate = 1.0;  // every attempt fails
  FaultRig rig(fo, rp);
  std::vector<graph::NodeId> nodes = {1, 5, 9, 12, 40, 63};
  FeatureGatherCounts counts;
  std::vector<float> out(nodes.size() * 1024, 1.0f);
  ASSERT_TRUE(
      rig.gatherer->Gather(nodes, std::span<float>(out), &counts).ok());
  EXPECT_EQ(counts.degraded_nodes, nodes.size());
  EXPECT_EQ(counts.storage_reads, 0u);
  EXPECT_EQ(rig.array->dead_letters_total(), nodes.size());
  EXPECT_EQ(rig.array->retries_total(), nodes.size() * rp.max_retries);
  EXPECT_EQ(rig.cache->resident_lines(), 0u);
  for (float v : out) EXPECT_EQ(v, 0.0f);  // zero-fill-with-flag contract
}

TEST(FaultRetryTest, OfflineDeviceDegradesExactlyItsPages) {
  RetryPolicy rp;
  rp.max_retries = 1;
  FaultOptions fo;
  fo.offline_devices = {1};
  FaultRig rig(fo, rp, /*n_ssd=*/2);
  std::vector<graph::NodeId> nodes = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  FeatureGatherCounts counts;
  auto out = rig.gatherer->Gather(nodes, &counts);
  ASSERT_TRUE(out.ok());
  // Node i lives on page i; odd pages stripe to the offline device 1.
  EXPECT_EQ(counts.degraded_nodes, 5u);
  EXPECT_EQ(rig.array->dead_letters_total(), 5u);
  std::vector<float> expected(1024);
  for (graph::NodeId v : {0, 2, 4, 6, 8}) {
    rig.fs.FillFeature(v, expected);
    for (uint32_t j = 0; j < 1024; ++j) {
      ASSERT_EQ((*out)[v * 1024 + j], expected[j]) << "node " << v;
    }
  }
  for (graph::NodeId v : {1, 3, 5, 7, 9}) {
    for (uint32_t j = 0; j < 1024; ++j) {
      ASSERT_EQ((*out)[v * 1024 + j], 0.0f) << "node " << v;
    }
  }
}

// (c) Backoff timestamps are reproducible in virtual time: the backoff total
// is an exact, replayable function of (fault_seed, page set).
TEST(FaultRetryTest, BackoffVirtualTimeIsReproducible) {
  RetryPolicy rp;
  rp.max_retries = 4;
  rp.backoff_initial_ns = 30 * kNsPerUs;
  FaultOptions fo;
  fo.fault_rate = 1.0 / 3.0;

  // Single-read exactness: find a page whose attempt 0 fails and attempt 1
  // succeeds, and check the backoff ledger advances by exactly BackoffNs(0).
  FaultRig probe(fo, rp);
  const FaultInjector* inj = probe.array->fault_injector();
  ASSERT_NE(inj, nullptr);
  const TimeNs base = probe.array->spec().read_latency_ns;
  int64_t page = -1;
  for (uint64_t p = 0; p < probe.fs.num_pages(); ++p) {
    if (inj->Peek(p, 0, 0, base).outcome ==
            FaultInjector::Outcome::kTransient &&
        inj->Peek(p, 0, 1, base).outcome == FaultInjector::Outcome::kOk) {
      page = static_cast<int64_t>(p);
      break;
    }
  }
  ASSERT_GE(page, 0) << "no retry-once page under this seed";
  std::vector<std::byte> buf(probe.fs.page_bytes());
  ASSERT_TRUE(probe.array->ReadPage(page, buf).ok());
  EXPECT_EQ(probe.array->retries_total(), 1u);
  EXPECT_EQ(probe.array->retry_backoff_ns_total(),
            static_cast<uint64_t>(rp.BackoffNs(0)));

  // Whole-run reproducibility: identical totals across two runs and across
  // cache shard counts (decisions don't depend on the cache geometry).
  auto run = [&](uint32_t shards) {
    FaultRig rig(fo, rp, 1, shards);
    FeatureGatherCounts counts;
    auto nodes = AllNodes();
    GIDS_CHECK_OK(rig.gatherer->Gather(nodes, &counts).status());
    return std::tuple<uint64_t, uint64_t, uint64_t, uint64_t>(
        rig.array->retry_backoff_ns_total(), rig.array->retries_total(),
        rig.array->timeouts_total(), counts.degraded_nodes);
  };
  auto serial1 = run(0);
  auto serial2 = run(0);
  EXPECT_EQ(serial1, serial2);
  EXPECT_EQ(run(4), serial1);
}

// A gather's receipt bills exactly the reads its call issued: it matches
// the array's penalty ledgers, and with coalescing off one grouped call
// bills what one call per slice does (what lets the loader and the
// serving tier issue one GatherGroup per kernel).
TEST(FaultRetryTest, ReceiptBillsExactlyTheCallsReads) {
  RetryPolicy rp;
  rp.max_retries = 1;
  FaultOptions fo;
  fo.fault_rate = 0.4;
  FaultRig grouped(fo, rp);
  FaultRig per_slice(fo, rp);
  std::vector<graph::NodeId> first(32);
  std::vector<graph::NodeId> second(48);
  std::iota(first.begin(), first.end(), 0);
  std::iota(second.begin(), second.end(), 16);  // overlaps first
  std::vector<float> out_a(first.size() * 1024);
  std::vector<float> out_b(second.size() * 1024);
  std::vector<GatherSlice> slices = {{first, std::span<float>(out_a)},
                                     {second, std::span<float>(out_b)}};
  std::vector<FeatureGatherCounts> counts(2);
  GatherReceipt whole;
  ASSERT_TRUE(grouped.gatherer->GatherGroup(slices, counts, &whole).ok());
  EXPECT_GT(whole.degraded_penalty_ns, 0);
  EXPECT_GT(whole.retry_penalty_ns, whole.degraded_penalty_ns);
  EXPECT_EQ(static_cast<uint64_t>(whole.retry_penalty_ns),
            grouped.array->retry_penalty_ns_total());
  EXPECT_EQ(static_cast<uint64_t>(whole.degraded_penalty_ns),
            grouped.array->degraded_penalty_ns_total());

  GatherReceipt sum;
  for (size_t s = 0; s < slices.size(); ++s) {
    FeatureGatherCounts c;
    GatherReceipt r;
    ASSERT_TRUE(per_slice.gatherer
                    ->GatherGroup(std::span<const GatherSlice>(&slices[s], 1),
                                  std::span<FeatureGatherCounts>(&c, 1), &r)
                    .ok());
    sum.retry_penalty_ns += r.retry_penalty_ns;
    sum.crc_verify_ns += r.crc_verify_ns;
    sum.degraded_penalty_ns += r.degraded_penalty_ns;
  }
  EXPECT_TRUE(whole == sum);
}

// Counting mode makes the same fault/retry decisions as the functional
// path, so timing-only benchmark runs report the same resilience counters.
TEST(FaultRetryTest, CountingModeMatchesFunctionalCounters) {
  RetryPolicy rp;
  rp.max_retries = 1;
  FaultOptions fo;
  fo.fault_rate = 0.4;
  FaultRig functional(fo, rp);
  FaultRig counting(fo, rp);
  auto nodes = AllNodes();
  FeatureGatherCounts fc, cc;
  ASSERT_TRUE(functional.gatherer->Gather(nodes, &fc).ok());
  ASSERT_TRUE(counting.gatherer->Gather(nodes, {}, &cc).ok());
  EXPECT_EQ(fc.degraded_nodes, cc.degraded_nodes);
  EXPECT_EQ(fc.storage_reads, cc.storage_reads);
  EXPECT_EQ(functional.array->retries_total(),
            counting.array->retries_total());
  EXPECT_EQ(functional.array->dead_letters_total(),
            counting.array->dead_letters_total());
}

// Every read attempt is one NVMe command and rings one doorbell
// (FAULTS.md): a served read rings once plus once per retry, and a
// dead-lettered read rings max_retries + 1 times, max_retries of them
// counted as retries. Transient errors and stuck-queue timeouts both
// fail attempts here, in both read modes.
TEST(FaultRetryTest, OneDoorbellPerAttempt) {
  RetryPolicy rp;
  rp.max_retries = 1;
  FaultOptions fo;
  fo.fault_rate = 0.3;
  fo.stuck_queue_rate = 0.1;
  for (bool counting : {false, true}) {
    FaultRig rig(fo, rp);
    FeatureGatherCounts counts;
    auto nodes = AllNodes();
    if (counting) {
      ASSERT_TRUE(rig.gatherer->Gather(nodes, {}, &counts).ok());
    } else {
      ASSERT_TRUE(rig.gatherer->Gather(nodes, &counts).ok());
    }
    const StorageArray& a = *rig.array;
    ASSERT_GT(a.retries_total(), 0u);
    ASSERT_GT(a.timeouts_total(), 0u);
    ASSERT_GT(a.dead_letters_total(), 0u);
    EXPECT_EQ(a.doorbells(),
              a.total_reads() + a.retries_total() + a.dead_letters_total())
        << (counting ? "counting" : "functional");
  }
}

// An epoch completes (no abort) under a 1% transient fault rate, the
// degraded-node counter is exported, and two identically-seeded loaders
// report identical resilience counters.
TEST(FaultRetryTest, LoaderCompletesEpochUnderFaults) {
  // Metric callbacks registered by the loader read live loader state, so
  // the registry must be consumed while the loader is alive
  // (OBSERVABILITY.md lifetime contract).
  auto run_loader = [](bool with_metrics) {
    obs::MetricRegistry registry;
    gids::testing::LoaderRig rig;
    core::GidsOptions opts;
    opts.counting_mode = true;
    opts.fault_rate = 0.01;
    opts.io_max_retries = 2;
    opts.metrics = with_metrics ? &registry : nullptr;
    core::GidsLoader loader(rig.dataset.get(), rig.sampler.get(),
                            rig.seeds.get(), rig.system.get(), opts);
    uint64_t degraded = 0;
    for (int i = 0; i < 30; ++i) {
      auto batch = loader.Next();
      GIDS_CHECK_OK(batch.status());
      degraded += batch->stats.gather.degraded_nodes;
    }
    if (with_metrics) {
      std::string json = registry.ToJson();
      EXPECT_NE(json.find("gids_storage_degraded_nodes"), std::string::npos);
      EXPECT_NE(json.find("gids_storage_retries_total"), std::string::npos);
    }
    return std::pair<uint64_t, uint64_t>(
        degraded, loader.storage_array().dead_letters_total());
  };
  auto first = run_loader(true);
  auto second = run_loader(false);
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace gids::storage
