#include "common/crc32c.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "common/random.h"

namespace gids {
namespace {

uint32_t CrcOfString(const std::string& s) { return Crc32c(s.data(), s.size()); }

// RFC 3720 (iSCSI) appendix B.4 known-answer vectors for CRC-32C.
struct KnownAnswer {
  std::vector<uint8_t> data;
  uint32_t crc;
};

std::vector<KnownAnswer> Rfc3720Vectors() {
  const std::string digits = "123456789";
  std::vector<uint8_t> asc(32);
  std::iota(asc.begin(), asc.end(), 0);
  std::vector<uint8_t> desc(32);
  for (size_t i = 0; i < desc.size(); ++i) {
    desc[i] = static_cast<uint8_t>(31 - i);
  }
  return {{{digits.begin(), digits.end()}, 0xE3069283u},
          {std::vector<uint8_t>(32, 0x00), 0x8A9136AAu},
          {std::vector<uint8_t>(32, 0xFF), 0x62A8AB43u},
          {asc, 0x46DD794Eu},
          {desc, 0x113FDB5Cu}};
}

TEST(Crc32cTest, Rfc3720KnownAnswers) {
  for (const auto& [data, crc] : Rfc3720Vectors()) {
    EXPECT_EQ(Crc32c(data.data(), data.size()), crc);
  }
}

// Crc32cExtend runs the SSE4.2 path where the CPU has it: three
// interleaved streams per 768-byte block, folded with a shift table. It
// must equal the portable slice-by-8 oracle for every length 0-1600
// (which crosses the block boundary twice), at every start offset 0-7,
// from a zero and from a random running CRC; the oracle itself is pinned
// to the RFC 3720 vectors. On hosts without SSE4.2 both calls run the
// portable code.
TEST(Crc32cTest, HardwareMatchesPortable) {
  for (const auto& [data, crc] : Rfc3720Vectors()) {
    EXPECT_EQ(Crc32cExtendPortable(0, data.data(), data.size()), crc);
  }
  Rng rng(0x5e42);
  std::vector<uint8_t> buf(1600 + 8);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const uint32_t seeded = static_cast<uint32_t>(rng.Next());
  for (uint32_t init : {0u, seeded}) {
    for (size_t offset = 0; offset < 8; ++offset) {
      for (size_t n = 0; n <= 1600; ++n) {
        ASSERT_EQ(Crc32cExtend(init, buf.data() + offset, n),
                  Crc32cExtendPortable(init, buf.data() + offset, n))
            << "init " << init << " offset " << offset << " n " << n;
      }
    }
  }
}

TEST(Crc32cTest, EmptyBufferIsZero) {
  EXPECT_EQ(Crc32c(nullptr, 0), 0u);
  EXPECT_EQ(Crc32cExtend(0, nullptr, 0), 0u);
  // Extending an arbitrary running CRC with zero bytes is the identity.
  EXPECT_EQ(Crc32cExtend(0xdeadbeefu, nullptr, 0), 0xdeadbeefu);
}

TEST(Crc32cTest, IncrementalEqualsOneShot) {
  const std::string msg = "The quick brown fox jumps over the lazy dog";
  const uint32_t whole = CrcOfString(msg);
  // Every possible split point must compose to the one-shot sum.
  for (size_t split = 0; split <= msg.size(); ++split) {
    uint32_t crc = Crc32cExtend(0, msg.data(), split);
    crc = Crc32cExtend(crc, msg.data() + split, msg.size() - split);
    EXPECT_EQ(crc, whole) << "split at " << split;
  }
}

// Property test: for seeded random buffers cut into random chunks, the
// chunked incremental sum always equals the one-shot sum. Exercises the
// block loop together with unaligned heads and short tails.
TEST(Crc32cTest, RandomSplitFuzz) {
  Rng rng(0x32c5eed);
  for (int round = 0; round < 200; ++round) {
    const size_t n = 1 + rng.Next() % 4096;
    std::vector<uint8_t> buf(n);
    for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
    const uint32_t whole = Crc32c(buf.data(), n);

    uint32_t crc = 0;
    size_t pos = 0;
    while (pos < n) {
      const size_t chunk = 1 + rng.Next() % (n - pos);
      crc = Crc32cExtend(crc, buf.data() + pos, chunk);
      pos += chunk;
    }
    EXPECT_EQ(crc, whole) << "round " << round << " n=" << n;
  }
}

// Single-bit and short-burst sensitivity: flipping any one byte of a page
// changes the sum (the injector's 1-4 byte bursts are always detected;
// CRC-32C detects all bursts up to 32 bits).
TEST(Crc32cTest, ShortBurstsAlwaysChangeSum) {
  Rng rng(0xb125);
  std::vector<uint8_t> page(512);
  for (auto& b : page) b = static_cast<uint8_t>(rng.Next());
  const uint32_t clean = Crc32c(page.data(), page.size());
  for (int round = 0; round < 500; ++round) {
    std::vector<uint8_t> bad = page;
    const size_t len = 1 + rng.Next() % 4;  // injector burst: 1-4 bytes
    const size_t start = rng.Next() % (bad.size() - len + 1);
    for (size_t i = 0; i < len; ++i) {
      uint8_t mask = static_cast<uint8_t>(rng.Next());
      bad[start + i] ^= mask != 0 ? mask : 0xa5;
    }
    EXPECT_NE(Crc32c(bad.data(), bad.size()), clean)
        << "undetected burst at " << start << " len " << len;
  }
}

}  // namespace
}  // namespace gids
