#include "common/crc32c.h"

#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace gids {
namespace {

// Reflected CRC-32C polynomial.
constexpr uint32_t kPoly = 0x82f63b78u;

// Slice-by-8 tables: kTable[0] is the classic byte-at-a-time table;
// kTable[k][b] advances byte b through k additional zero bytes, so eight
// table lookups process one aligned 8-byte word.
struct Tables {
  uint32_t t[8][256];

  constexpr Tables() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
      }
      t[0][i] = crc;
    }
    for (uint32_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xff];
      }
    }
  }
};

constexpr Tables kTables;

#if defined(__x86_64__)

// The hardware path checksums each 768-byte block as three independent
// 256-byte streams, so three crc32 instructions are in flight at once,
// then folds the three stream sums into one.
constexpr size_t kStreamBytes = 256;

// kShift.t[k][b] advances the register value b << 8k through kStreamBytes
// zero bytes, i.e. multiplies it by x^(8*256) mod P. That advance is
// linear, so Shift() of a 32-bit register is four lookups XORed together.
struct ShiftTable {
  uint32_t t[4][256];

  constexpr ShiftTable() : t{} {
    for (int k = 0; k < 4; ++k) {
      for (uint32_t b = 0; b < 256; ++b) {
        uint32_t s = b << (8 * k);
        for (size_t z = 0; z < kStreamBytes; ++z) {
          s = (s >> 8) ^ kTables.t[0][s & 0xff];
        }
        t[k][b] = s;
      }
    }
  }

  uint32_t Shift(uint32_t s) const {
    return t[0][s & 0xff] ^ t[1][(s >> 8) & 0xff] ^ t[2][(s >> 16) & 0xff] ^
           t[3][s >> 24];
  }
};

constexpr ShiftTable kShift;

uint64_t Load64(const unsigned char* p) {
  uint64_t word = 0;
  std::memcpy(&word, p, 8);
  return word;
}

bool CpuHasSse42() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}

__attribute__((target("sse4.2"))) uint32_t ExtendSse42(
    uint32_t crc, const unsigned char* p, size_t n) {
  uint64_t s = crc ^ 0xffffffffu;
  for (; n >= 3 * kStreamBytes; p += 3 * kStreamBytes, n -= 3 * kStreamBytes) {
    uint64_t s1 = 0;
    uint64_t s2 = 0;
    for (size_t i = 0; i < kStreamBytes; i += 8) {
      s = _mm_crc32_u64(s, Load64(p + i));
      s1 = _mm_crc32_u64(s1, Load64(p + kStreamBytes + i));
      s2 = _mm_crc32_u64(s2, Load64(p + 2 * kStreamBytes + i));
    }
    // The block is streams [A|B|C]: advance A's sum past B and add B's,
    // then advance that past C and add C's.
    s = kShift.Shift(kShift.Shift(static_cast<uint32_t>(s)) ^
                     static_cast<uint32_t>(s1)) ^
        s2;
  }
  for (; n >= 8; p += 8, n -= 8) s = _mm_crc32_u64(s, Load64(p));
  for (; n > 0; ++p, --n) {
    s = _mm_crc32_u8(static_cast<uint32_t>(s), *p);
  }
  return static_cast<uint32_t>(s) ^ 0xffffffffu;
}

#endif  // defined(__x86_64__)

}  // namespace

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
#if defined(__x86_64__)
  static const bool hardware = CpuHasSse42();
  if (hardware) {
    return ExtendSse42(crc, static_cast<const unsigned char*>(data), n);
  }
#endif
  return Crc32cExtendPortable(crc, data, n);
}

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint32_t s = crc ^ 0xffffffffu;

  // Byte-align to 8 so the word loop can use a single memcpy-load per step.
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    s = (s >> 8) ^ kTables.t[0][(s ^ *p++) & 0xff];
    --n;
  }
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, 8);
    // Little-endian fold; on big-endian hosts fall back below. All current
    // build targets are little-endian, matching the table layout.
    word ^= s;
    s = kTables.t[7][word & 0xff] ^ kTables.t[6][(word >> 8) & 0xff] ^
        kTables.t[5][(word >> 16) & 0xff] ^ kTables.t[4][(word >> 24) & 0xff] ^
        kTables.t[3][(word >> 32) & 0xff] ^ kTables.t[2][(word >> 40) & 0xff] ^
        kTables.t[1][(word >> 48) & 0xff] ^ kTables.t[0][(word >> 56) & 0xff];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    s = (s >> 8) ^ kTables.t[0][(s ^ *p++) & 0xff];
    --n;
  }
  return s ^ 0xffffffffu;
}

}  // namespace gids
