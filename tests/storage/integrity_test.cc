#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <vector>

#include "common/crc32c.h"
#include "common/status.h"
#include "core/gids_loader.h"
#include "graph/feature_store.h"
#include "obs/metric_registry.h"
#include "storage/fault_injector.h"
#include "storage/feature_gather.h"
#include "storage/page_integrity.h"
#include "storage/software_cache.h"
#include "storage/storage_array.h"
#include "tests/test_util.h"

namespace gids::storage {
namespace {

// 64 nodes x 1024 floats over 4 KiB pages: node i occupies exactly page i,
// so corrupt-node counts can be predicted from page-level decisions.
struct IntegrityRig {
  IntegrityRig(const FaultOptions& faults, const RetryPolicy& retry,
               const IntegrityOptions& integrity)
      : fs(64, 1024) {
    auto dev = std::make_unique<FunctionBlockDevice>(
        fs.num_pages(), fs.page_bytes(),
        [this](uint64_t lba, std::span<std::byte> out) {
          fs.FillPage(lba, out);
        });
    array = std::make_unique<StorageArray>(std::move(dev),
                                           sim::SsdSpec::IntelOptane(), 1);
    if (faults.enabled()) array->EnableFaultInjection(faults, retry);
    array->EnableIntegrity(integrity);
    cache = std::make_unique<SoftwareCache>(16 * 4096, 4096, fs.num_pages(),
                                            0xcac4e, /*store_payloads=*/true);
    if (integrity.verify_cache_fill || integrity.verify_cache_hit) {
      cache->EnableIntegrity(&array->checksummer(),
                             integrity.verify_cache_fill,
                             integrity.verify_cache_hit);
    }
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

TEST(StatusTest, DataLossCodeAndFactory) {
  Status s = Status::DataLoss("page 7 unrepairable");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.ToString().find("DataLoss"), std::string::npos);
}

TEST(PageChecksummerTest, TagsCatchMisdirectedReads) {
  PageChecksummer cs(0xc3c32c);
  std::vector<std::byte> page(256, std::byte{0x42});
  // Identical bytes at different page addresses must carry different sums.
  EXPECT_NE(cs.Checksum(3, page), cs.Checksum(4, page));
  // Different seeds decorrelate the checksum spaces.
  PageChecksummer other(0x1234);
  EXPECT_NE(cs.Checksum(3, page), other.Checksum(3, page));
  // The tag is an XOR layer over the raw CRC.
  EXPECT_EQ(cs.Checksum(3, page) ^ cs.PageTag(3),
            Crc32c(page.data(), page.size()));
}

TEST(FaultInjectorTest, CorruptionIsDeterministicAndAlwaysDetected) {
  FaultOptions fo;
  fo.corruption_rate = 0.5;
  fo.fault_seed = 21;
  FaultInjector inj(fo, RetryPolicy{});
  PageChecksummer cs(0xc3c32c);
  bool any_corrupt = false;
  for (uint64_t page = 0; page < 128; ++page) {
    auto a = inj.Peek(page, 0, 0, 11000);
    ASSERT_EQ(a.corrupt, inj.Peek(page, 0, 0, 11000).corrupt);
    if (!a.corrupt) continue;
    any_corrupt = true;
    std::vector<std::byte> clean(512, std::byte{0x5a});
    const uint32_t sum = cs.Checksum(page, clean);
    std::vector<std::byte> bad = clean;
    inj.Corrupt(page, 0, bad);
    EXPECT_NE(bad, clean) << "Corrupt() was a no-op on page " << page;
    // The burst is <= 32 bits, so CRC-32C detection is certain.
    EXPECT_NE(cs.Checksum(page, bad), sum);
    // Same (page, attempt) => same pattern; a second application undoes it.
    inj.Corrupt(page, 0, bad);
    EXPECT_EQ(bad, clean);
  }
  EXPECT_TRUE(any_corrupt);
}

TEST(FaultInjectorTest, CorruptionOnlyRidesSuccessfulAttempts) {
  FaultOptions fo;
  fo.corruption_rate = 1.0;
  fo.fault_rate = 0.3;
  FaultInjector inj(fo, RetryPolicy{});
  for (uint64_t page = 0; page < 64; ++page) {
    auto a = inj.Peek(page, 0, 0, 11000);
    if (a.outcome != FaultInjector::Outcome::kOk) {
      EXPECT_FALSE(a.corrupt) << "loud failure also corrupted, page " << page;
    } else {
      EXPECT_TRUE(a.corrupt);
    }
  }
}

// Silent corruption without verification: the epoch "succeeds" but the
// gathered bytes are wrong — the hazard the integrity layer exists for.
TEST(IntegrityTest, UndetectedCorruptionServesWrongBytes) {
  FaultOptions fo;
  fo.corruption_rate = 1.0;
  IntegrityRig rig(fo, RetryPolicy{}, IntegrityOptions{});
  IntegrityRig clean(FaultOptions{}, RetryPolicy{}, IntegrityOptions{});
  auto nodes = AllNodes();
  FeatureGatherCounts counts;
  auto out = rig.gatherer->Gather(nodes, &counts);
  auto want = clean.gatherer->Gather(nodes, &counts);
  ASSERT_TRUE(out.ok());
  EXPECT_NE(*out, *want);
  EXPECT_GT(rig.array->fault_injector()->pages_corrupted(), 0u);
  EXPECT_EQ(counts.corrupt_nodes, 0u);  // nobody noticed
  EXPECT_EQ(rig.array->checksum_mismatches_total(), 0u);
}

// A verified functional read takes its page's write-time checksum from
// the clean bytes it has just read, before any corruption is injected, so
// the first touch of a page fills it from the device once instead of
// regenerating it a second time for the checksum. A corrupt first attempt
// is still caught against that clean sum.
TEST(IntegrityTest, FirstVerifiedReadFillsOnce) {
  graph::FeatureStore fs(64, 1024);
  uint64_t fills = 0;
  auto make_array = [&](double corruption_rate) {
    auto array = std::make_unique<StorageArray>(
        std::make_unique<FunctionBlockDevice>(
            fs.num_pages(), fs.page_bytes(),
            [&](uint64_t lba, std::span<std::byte> out) {
              ++fills;
              fs.FillPage(lba, out);
            }),
        sim::SsdSpec::IntelOptane(), 1);
    FaultOptions faults;
    faults.corruption_rate = corruption_rate;
    RetryPolicy retry;
    retry.max_retries = 0;
    array->EnableFaultInjection(faults, retry);
    IntegrityOptions integrity;
    integrity.verify_reads = true;
    array->EnableIntegrity(integrity);
    return array;
  };
  std::vector<std::byte> out(fs.page_bytes());
  StorageArray::ReadOutcome oc;

  auto clean = make_array(0.0);
  ASSERT_TRUE(clean->ReadPage(7, out, &oc).ok());
  EXPECT_EQ(fills, 1u);
  ASSERT_TRUE(oc.crc_known);
  EXPECT_EQ(oc.crc, clean->checksummer().Checksum(7, out.data(), out.size()));
  ASSERT_TRUE(clean->ReadPage(7, out, &oc).ok());  // memoized sum
  EXPECT_EQ(fills, 2u);
  EXPECT_EQ(clean->checksum_mismatches_total(), 0u);

  fills = 0;
  auto corrupt = make_array(1.0);
  EXPECT_EQ(corrupt->ReadPage(7, out, &oc).code(), StatusCode::kDataLoss);
  EXPECT_EQ(fills, 1u);
  EXPECT_EQ(corrupt->checksum_mismatches_total(), 1u);
}

// Verify-on-read turns the same corruption into repairs: the gathered
// bytes come out bit-identical to a corruption-free run.
TEST(IntegrityTest, VerifyReadsRepairsToBitIdenticalOutput) {
  RetryPolicy rp;
  rp.max_retries = 8;  // deep enough that no page exhausts at rate 0.3
  FaultOptions fo;
  fo.corruption_rate = 0.3;
  IntegrityOptions io;
  io.verify_reads = true;
  IntegrityRig rig(fo, rp, io);
  IntegrityRig clean(FaultOptions{}, RetryPolicy{}, IntegrityOptions{});

  auto nodes = AllNodes();
  FeatureGatherCounts fc, cc;
  auto repaired = rig.gatherer->Gather(nodes, &fc);
  auto want = clean.gatherer->Gather(nodes, &cc);
  ASSERT_TRUE(repaired.ok());
  ASSERT_EQ(rig.array->data_loss_total(), 0u)
      << "seed produced an unrepairable page; test premise broken";
  EXPECT_EQ(*repaired, *want);
  EXPECT_EQ(fc.corrupt_nodes, 0u);
  EXPECT_EQ(fc.degraded_nodes, 0u);
  EXPECT_GT(rig.array->integrity_repairs_total(), 0u);
  EXPECT_GT(rig.array->checksum_mismatches_total(), 0u);
  EXPECT_GT(rig.array->verified_reads_total(), 0u);
  // Verification time is charged into the retry-penalty ledger.
  EXPECT_GE(rig.array->retry_penalty_ns_total(),
            rig.array->verified_reads_total() *
                static_cast<uint64_t>(io.crc_verify_ns));
}

// Unrepairable corruption dead-letters as DataLoss and zero-fills with an
// exact corrupt_nodes count; the epoch still completes.
TEST(IntegrityTest, UnrepairableCorruptionCountsExactCorruptNodes) {
  RetryPolicy rp;
  rp.max_retries = 2;
  FaultOptions fo;
  fo.corruption_rate = 1.0;  // every attempt corrupts
  IntegrityOptions io;
  io.verify_reads = true;
  IntegrityRig rig(fo, rp, io);
  std::vector<graph::NodeId> nodes = {1, 5, 9, 12, 40, 63};
  FeatureGatherCounts counts;
  std::vector<float> out(nodes.size() * 1024, 1.0f);
  ASSERT_TRUE(
      rig.gatherer->Gather(nodes, std::span<float>(out), &counts).ok());
  EXPECT_EQ(counts.corrupt_nodes, nodes.size());
  EXPECT_EQ(counts.degraded_nodes, 0u);  // DataLoss, not Unavailable
  EXPECT_EQ(rig.array->data_loss_total(), nodes.size());
  EXPECT_EQ(rig.array->dead_letters_total(), nodes.size());
  EXPECT_EQ(rig.cache->resident_lines(), 0u);  // never poisons the cache
  for (float v : out) EXPECT_EQ(v, 0.0f);  // zero-fill-with-flag contract
}

// A single direct read surfaces Status::DataLoss (not Unavailable).
TEST(IntegrityTest, UnrepairableReadSurfacesDataLoss) {
  RetryPolicy rp;
  rp.max_retries = 1;
  FaultOptions fo;
  fo.corruption_rate = 1.0;
  IntegrityOptions io;
  io.verify_reads = true;
  IntegrityRig rig(fo, rp, io);
  std::vector<std::byte> buf(rig.fs.page_bytes());
  Status s = rig.array->ReadPage(0, buf);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  Status counting = rig.array->ReadPage(1, {});
  EXPECT_EQ(counting.code(), StatusCode::kDataLoss);
}

// Counting mode makes the same detection/repair decisions as the
// functional path (the <= 32-bit burst makes CRC detection certain), so
// timing-only benchmark runs report the same integrity counters.
TEST(IntegrityTest, CountingModeMatchesFunctionalCounters) {
  RetryPolicy rp;
  rp.max_retries = 2;
  FaultOptions fo;
  fo.corruption_rate = 0.4;
  IntegrityOptions io;
  io.verify_reads = true;
  IntegrityRig functional(fo, rp, io);
  IntegrityRig counting(fo, rp, io);
  auto nodes = AllNodes();
  FeatureGatherCounts fc, cc;
  ASSERT_TRUE(functional.gatherer->Gather(nodes, &fc).ok());
  ASSERT_TRUE(counting.gatherer->Gather(nodes, {}, &cc).ok());
  EXPECT_EQ(fc.corrupt_nodes, cc.corrupt_nodes);
  EXPECT_EQ(fc.degraded_nodes, cc.degraded_nodes);
  EXPECT_EQ(functional.array->verified_reads_total(),
            counting.array->verified_reads_total());
  EXPECT_EQ(functional.array->checksum_mismatches_total(),
            counting.array->checksum_mismatches_total());
  EXPECT_EQ(functional.array->integrity_repairs_total(),
            counting.array->integrity_repairs_total());
  EXPECT_EQ(functional.array->data_loss_total(),
            counting.array->data_loss_total());
  EXPECT_EQ(functional.array->retry_penalty_ns_total(),
            counting.array->retry_penalty_ns_total());
}

TEST(CacheIntegrityTest, FillVerificationRejectsCorruptPayloads) {
  PageChecksummer cs(0xc3c32c);
  SoftwareCache cache(16 * 64, 64, /*num_pages=*/16, 0xcac4e,
                      /*store_payloads=*/true, 1);
  cache.EnableIntegrity(&cs, /*verify_fill=*/true, /*verify_hit=*/false);
  std::vector<std::byte> payload(64, std::byte{0x7});
  EXPECT_TRUE(cache.Insert(5, payload, cs.Checksum(5, payload)));
  EXPECT_TRUE(cache.Contains(5));
  // Wrong checksum: the payload does not match its write-time sum.
  EXPECT_FALSE(cache.Insert(6, payload, cs.Checksum(5, payload)));
  EXPECT_FALSE(cache.Contains(6));
  // Corrupt-hinted fills (counting mode) are rejected too.
  EXPECT_FALSE(cache.Insert(7, payload, std::nullopt, /*corrupt_hint=*/true));
  EXPECT_FALSE(cache.Insert(8, {}, std::nullopt, /*corrupt_hint=*/true));
  EXPECT_EQ(cache.stats().fill_rejects, 3u);
  // A checksum-less clean insert is allowed (no sum to verify against).
  EXPECT_TRUE(cache.Insert(9, payload));
}

TEST(CacheIntegrityTest, HitVerificationQuarantinesMismatchedLines) {
  PageChecksummer cs(0xc3c32c);
  SoftwareCache cache(16 * 64, 64, /*num_pages=*/16, 0xcac4e,
                      /*store_payloads=*/true, 1);
  cache.EnableIntegrity(&cs, /*verify_fill=*/false, /*verify_hit=*/true);
  std::vector<std::byte> payload(64, std::byte{0x7});
  // Fill verification is off, so a line whose payload does not match its
  // carried checksum can become resident (a rotted line).
  ASSERT_TRUE(cache.Insert(5, payload, cs.Checksum(5, payload) ^ 1));
  ASSERT_TRUE(cache.Contains(5));
  cache.AddFutureReuse(5, 2);  // pin survives the quarantine
  std::vector<std::byte> got(64);
  EXPECT_FALSE(cache.Lookup(5, got));  // hit becomes a quarantined miss
  EXPECT_FALSE(cache.Contains(5));
  EXPECT_EQ(cache.stats().quarantines, 1u);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // The repairing re-insert re-pins via the surviving future-reuse entry.
  ASSERT_TRUE(cache.Insert(5, payload, cs.Checksum(5, payload)));
  EXPECT_EQ(cache.pinned_lines(), 1u);
  EXPECT_TRUE(cache.Lookup(5, got));
  EXPECT_EQ(got, payload);
}

TEST(CacheIntegrityTest, ScrubFindsAndQuarantinesRottenLines) {
  PageChecksummer cs(0xc3c32c);
  SoftwareCache cache(16 * 64, 64, /*num_pages=*/16, 0xcac4e,
                      /*store_payloads=*/true, 1);
  cache.EnableIntegrity(&cs, /*verify_fill=*/false, /*verify_hit=*/false);
  std::vector<std::byte> payload(64, std::byte{0x7});
  for (uint64_t p = 0; p < 8; ++p) {
    uint32_t crc = cs.Checksum(p, payload);
    if (p == 3 || p == 6) crc ^= 1;  // two rotten lines
    ASSERT_TRUE(cache.Insert(p, payload, crc));
  }
  // A bounded sweep resumes from the persistent cursor: two sweeps of 4
  // lines cover the whole (single-shard) cache.
  auto first = cache.ScrubShard(0, 4);
  auto second = cache.ScrubShard(0, 4);
  EXPECT_EQ(first.scanned + second.scanned, 8u);
  EXPECT_EQ(first.errors + second.errors, 2u);
  EXPECT_EQ(cache.resident_lines(), 6u);
  EXPECT_FALSE(cache.Contains(3));
  EXPECT_FALSE(cache.Contains(6));
  EXPECT_EQ(cache.stats().scrubbed_lines, 8u);
  EXPECT_EQ(cache.stats().scrub_errors, 2u);
  // A further sweep of the now-clean cache finds nothing.
  auto third = cache.ScrubShard(0, 64);
  EXPECT_EQ(third.errors, 0u);
}

// The loader's background scrubber walks the cache (and CPU buffer) in
// virtual time and exports its accounting; an epoch under corruption with
// verify-on-read completes and reports repairs through the registry.
TEST(IntegrityTest, LoaderScrubsAndRepairsUnderCorruption) {
  obs::MetricRegistry registry;
  gids::testing::LoaderRig rig;
  core::GidsOptions opts;
  opts.counting_mode = true;
  opts.corruption_rate = 0.01;
  opts.verify_reads = true;
  opts.verify_cache_fill = true;
  opts.verify_cache_hit = true;
  opts.scrub_pages_per_iter = 16;
  opts.io_max_retries = 4;
  opts.metrics = &registry;
  core::GidsLoader loader(rig.dataset.get(), rig.sampler.get(),
                          rig.seeds.get(), rig.system.get(), opts);
  for (int i = 0; i < 20; ++i) {
    auto batch = loader.Next();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  }
  EXPECT_GT(loader.storage_array().integrity_repairs_total(), 0u);
  double scrub_pages = 0, repairs = 0;
  for (const auto& m : registry.Snapshot()) {
    if (m.name == "gids_scrub_pages_total") scrub_pages = m.value;
    if (m.name == "gids_storage_integrity_repairs_total") repairs = m.value;
  }
  EXPECT_GT(scrub_pages, 0.0);
  EXPECT_GT(repairs, 0.0);
}

}  // namespace
}  // namespace gids::storage
