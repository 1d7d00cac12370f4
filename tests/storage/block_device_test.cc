#include "storage/block_device.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

namespace gids::storage {
namespace {

TEST(FunctionBlockDeviceTest, ServesComputedContent) {
  FunctionBlockDevice dev(16, 32, [](uint64_t lba, std::span<std::byte> out) {
    for (size_t i = 0; i < out.size(); ++i) {
      out[i] = std::byte((lba * 7 + i) & 0xff);
    }
  });
  std::vector<std::byte> out(32);
  ASSERT_TRUE(dev.ReadBlock(5, out).ok());
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], std::byte((5 * 7 + i) & 0xff));
  }
}

TEST(FunctionBlockDeviceTest, RereadIsIdentical) {
  FunctionBlockDevice dev(4, 64, [](uint64_t lba, std::span<std::byte> out) {
    for (size_t i = 0; i < out.size(); ++i) out[i] = std::byte(lba ^ i);
  });
  std::vector<std::byte> a(64);
  std::vector<std::byte> b(64);
  ASSERT_TRUE(dev.ReadBlock(2, a).ok());
  ASSERT_TRUE(dev.ReadBlock(2, b).ok());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), 64), 0);
}

TEST(FunctionBlockDeviceTest, Bounds) {
  FunctionBlockDevice dev(2, 16, [](uint64_t, std::span<std::byte>) {});
  std::vector<std::byte> buf(16);
  EXPECT_EQ(dev.ReadBlock(2, buf).code(), StatusCode::kOutOfRange);
  std::vector<std::byte> wrong(8);
  EXPECT_EQ(dev.ReadBlock(0, wrong).code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace gids::storage
