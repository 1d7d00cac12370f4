#ifndef GIDS_STORAGE_PAGE_INTEGRITY_H_
#define GIDS_STORAGE_PAGE_INTEGRITY_H_

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/crc32c.h"
#include "common/units.h"

namespace gids::storage {

/// Knobs of the end-to-end integrity layer (INTEGRITY.md). All default to
/// off: with every field at its default the read path and benchmark
/// output are bit-identical to a build without the layer.
struct IntegrityOptions {
  /// Verify the page checksum on every storage read (StorageArray). A
  /// mismatch is treated as a failed attempt and re-read under the
  /// bounded-retry budget; reads that never verify clean are dead-lettered
  /// as Status::DataLoss.
  bool verify_reads = false;
  /// Verify the checksum carried into the cache on fill: a corrupt page is
  /// rejected instead of cached (the storage-level retry already repaired
  /// or dead-lettered it; the reject guards the verify_reads=false case).
  bool verify_cache_fill = false;
  /// Re-verify resident cache lines on every hit. A mismatched line is
  /// quarantined (removed from the cache) and the access falls through to
  /// storage, which re-reads and repairs.
  bool verify_cache_hit = false;
  /// Seed mixed into every page checksum so sums are tagged by (seed,
  /// page): a page served at the wrong address fails verification even if
  /// its bytes are internally consistent (misdirected-read detection).
  uint64_t crc_seed = 0xc3c32c;
  /// Modeled virtual-time cost of one checksum verification, charged per
  /// verified attempt into the storage retry-penalty ledger.
  TimeNs crc_verify_ns = 1 * kNsPerUs;

  bool enabled() const {
    return verify_reads || verify_cache_fill || verify_cache_hit;
  }
  bool operator==(const IntegrityOptions&) const = default;
};

/// Computes page-tagged CRC-32C checksums: Checksum(page, bytes) mixes the
/// page id and the configured seed into the raw CRC, so (a) two pages with
/// identical bytes carry different sums and a misdirected read is caught,
/// and (b) independent arrays can decorrelate their checksum spaces via
/// the seed. Stateless and thread-safe.
class PageChecksummer {
 public:
  explicit PageChecksummer(uint64_t crc_seed) : seed_(crc_seed) {}

  uint64_t seed() const { return seed_; }

  uint32_t Checksum(uint64_t page, const void* data, size_t n) const {
    return Crc32c(data, n) ^ PageTag(page);
  }
  uint32_t Checksum(uint64_t page, std::span<const std::byte> data) const {
    return Checksum(page, data.data(), data.size());
  }

  /// The per-page tag XORed into the raw CRC. SplitMix64 finalizer over
  /// (seed ^ page), truncated to 32 bits: full avalanche, so flipping any
  /// bit of the page id flips about half the tag bits.
  uint32_t PageTag(uint64_t page) const {
    uint64_t z = seed_ ^ page;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    z ^= z >> 31;
    return static_cast<uint32_t>(z);
  }

 private:
  uint64_t seed_;
};

}  // namespace gids::storage

#endif  // GIDS_STORAGE_PAGE_INTEGRITY_H_
