#ifndef GIDS_COMMON_CRC32C_H_
#define GIDS_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <span>

namespace gids {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
/// checksum iSCSI (RFC 3720), ext4, and Btrfs use for on-media integrity.
/// On x86-64 hosts with SSE4.2 (checked once per process) it runs the
/// `crc32` instruction over three interleaved streams; every other host
/// runs Crc32cExtendPortable. Both compute the same function, so sums are
/// identical on every host.
///
/// The incremental form composes: Crc32cExtend(Crc32cExtend(0, a), b) ==
/// Crc32c(a ++ b), and Crc32c(x) == Crc32cExtend(0, x). The empty buffer
/// checksums to 0.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// The table-driven slice-by-8 CRC-32C that needs no CPU feature: the
/// fallback of Crc32cExtend and the oracle its hardware path is tested
/// against.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n);

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}
inline uint32_t Crc32c(std::span<const std::byte> data) {
  return Crc32cExtend(0, data.data(), data.size());
}
inline uint32_t Crc32cExtend(uint32_t crc, std::span<const std::byte> data) {
  return Crc32cExtend(crc, data.data(), data.size());
}

}  // namespace gids

#endif  // GIDS_COMMON_CRC32C_H_
