#include "storage/storage_array.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace gids::storage {
namespace {

std::unique_ptr<StorageArray> MakeArray(int n_ssd, uint64_t pages = 64,
                                        uint32_t page_bytes = 128) {
  auto dev = std::make_unique<FunctionBlockDevice>(
      pages, page_bytes, [](uint64_t lba, std::span<std::byte> out) {
        for (size_t i = 0; i < out.size(); ++i) {
          out[i] = std::byte((lba + i) & 0xff);
        }
      });
  return std::make_unique<StorageArray>(std::move(dev),
                                        sim::SsdSpec::IntelOptane(), n_ssd);
}

TEST(StorageArrayTest, ReadsThroughToDevice) {
  auto arr = MakeArray(2);
  std::vector<std::byte> out(128);
  ASSERT_TRUE(arr->ReadPage(3, out).ok());
  EXPECT_EQ(out[0], std::byte{3});
  EXPECT_EQ(out[1], std::byte{4});
}

TEST(StorageArrayTest, RoundRobinStriping) {
  auto arr = MakeArray(3);
  EXPECT_EQ(arr->DeviceFor(0), 0);
  EXPECT_EQ(arr->DeviceFor(1), 1);
  EXPECT_EQ(arr->DeviceFor(2), 2);
  EXPECT_EQ(arr->DeviceFor(3), 0);
}

TEST(StorageArrayTest, PerDeviceCounters) {
  auto arr = MakeArray(2);
  std::vector<std::byte> out(128);
  for (uint64_t p = 0; p < 10; ++p) {
    ASSERT_TRUE(arr->ReadPage(p, out).ok());
  }
  EXPECT_EQ(arr->total_reads(), 10u);
  EXPECT_EQ(arr->reads_on_device(0), 5u);
  EXPECT_EQ(arr->reads_on_device(1), 5u);
}

TEST(StorageArrayTest, NoteReadCountsWithoutData) {
  // An empty span is a counting-mode read: counted, no bytes moved.
  auto arr = MakeArray(2);
  for (uint64_t p = 0; p < 3; ++p) {
    ASSERT_TRUE(arr->ReadPage(p, {}).ok());
  }
  EXPECT_EQ(arr->total_reads(), 3u);
  EXPECT_EQ(arr->reads_on_device(0), 2u);
  EXPECT_EQ(arr->reads_on_device(1), 1u);
}

TEST(StorageArrayTest, OutOfRangePropagates) {
  auto arr = MakeArray(1, /*pages=*/4);
  std::vector<std::byte> out(128);
  EXPECT_EQ(arr->ReadPage(4, out).code(), StatusCode::kOutOfRange);
}

}  // namespace
}  // namespace gids::storage
