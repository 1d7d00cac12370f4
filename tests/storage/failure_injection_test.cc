#include <gtest/gtest.h>

#include <memory>

#include "graph/feature_store.h"
#include "storage/feature_gather.h"
#include "storage/software_cache.h"
#include "storage/storage_array.h"

namespace gids::storage {
namespace {

/// Wraps a device and fails every `period`-th read with an IO error —
/// models a flaky NVMe link. Used to verify errors surface as Status all
/// the way up the gather stack instead of corrupting data or crashing.
class FlakyBlockDevice : public BlockDevice {
 public:
  FlakyBlockDevice(std::unique_ptr<BlockDevice> inner, uint64_t period)
      : inner_(std::move(inner)), period_(period) {}

  uint32_t block_bytes() const override { return inner_->block_bytes(); }
  uint64_t num_blocks() const override { return inner_->num_blocks(); }

  Status ReadBlock(uint64_t lba, std::span<std::byte> out) const override {
    ++reads_;
    if (reads_ % period_ == 0) {
      return Status::IoError("injected device failure");
    }
    return inner_->ReadBlock(lba, out);
  }

  uint64_t reads() const { return reads_; }

 private:
  std::unique_ptr<BlockDevice> inner_;
  uint64_t period_;
  mutable uint64_t reads_ = 0;
};

struct FlakyRig {
  explicit FlakyRig(uint64_t period) : fs(64, 1024) {
    auto real = std::make_unique<FunctionBlockDevice>(
        fs.num_pages(), fs.page_bytes(),
        [this](uint64_t lba, std::span<std::byte> out) {
          fs.FillPage(lba, out);
        });
    array = std::make_unique<StorageArray>(
        std::make_unique<FlakyBlockDevice>(std::move(real), period),
        sim::SsdSpec::IntelOptane(), 1);
    cache = std::make_unique<SoftwareCache>(16 * 4096, 4096, fs.num_pages());
    gatherer =
        std::make_unique<FeatureGatherer>(&fs, array.get(), cache.get());
  }

  graph::FeatureStore fs;
  std::unique_ptr<StorageArray> array;
  std::unique_ptr<SoftwareCache> cache;
  std::unique_ptr<FeatureGatherer> gatherer;
};

TEST(FailureInjectionTest, ErrorSurfacesThroughGather) {
  FlakyRig rig(/*period=*/3);
  std::vector<graph::NodeId> nodes = {0, 1, 2, 3, 4, 5};
  storage::FeatureGatherCounts counts;
  std::vector<float> out(nodes.size() * 1024);
  Status s = rig.gatherer->Gather(nodes, std::span<float>(out), &counts);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST(FailureInjectionTest, SuccessfulReadsBeforeFailureAreCorrect) {
  FlakyRig rig(/*period=*/1000);  // fail far beyond this test's reads
  std::vector<graph::NodeId> nodes = {7, 9};
  storage::FeatureGatherCounts counts;
  auto gathered = rig.gatherer->Gather(nodes, &counts);
  ASSERT_TRUE(gathered.ok());
  std::vector<float> expected(1024);
  rig.fs.FillFeature(7, expected);
  for (uint32_t j = 0; j < 1024; ++j) {
    ASSERT_EQ((*gathered)[j], expected[j]);
  }
}

TEST(FailureInjectionTest, RetryAfterTransientFailureSucceeds) {
  // Period-2 flakiness: every other read fails. The cache means a retry
  // of the same gather eventually succeeds page by page.
  FlakyRig rig(/*period=*/2);
  std::vector<graph::NodeId> nodes = {1};
  storage::FeatureGatherCounts counts;
  std::vector<float> out(1024);
  Status first = rig.gatherer->Gather(nodes, std::span<float>(out), &counts);
  Status second = rig.gatherer->Gather(nodes, std::span<float>(out), &counts);
  EXPECT_TRUE(first.ok() || second.ok());
  if (second.ok()) {
    std::vector<float> expected(1024);
    rig.fs.FillFeature(1, expected);
    for (uint32_t j = 0; j < 1024; ++j) ASSERT_EQ(out[j], expected[j]);
  }
}

TEST(FailureInjectionTest, FailedReadNotCached) {
  // A failed storage read must not leave a bogus line in the cache.
  FlakyRig rig(/*period=*/1);  // every read fails
  std::vector<graph::NodeId> nodes = {5};
  storage::FeatureGatherCounts counts;
  std::vector<float> out(1024);
  EXPECT_FALSE(
      rig.gatherer->Gather(nodes, std::span<float>(out), &counts).ok());
  EXPECT_EQ(rig.cache->resident_lines(), 0u);
}

}  // namespace
}  // namespace gids::storage
