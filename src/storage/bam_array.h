#ifndef GIDS_STORAGE_BAM_ARRAY_H_
#define GIDS_STORAGE_BAM_ARRAY_H_

#include <cstdint>
#include <span>

#include "common/status.h"
#include "storage/software_cache.h"
#include "storage/storage_array.h"

namespace gids::storage {

/// Per-gather traffic counts, the functional inputs to the aggregation
/// timing model.
struct GatherCounts {
  uint64_t cache_hits = 0;
  uint64_t storage_reads = 0;
  uint64_t total() const { return cache_hits + storage_reads; }
};

/// The BaM array abstraction: a flat page space backed by the SSD array
/// and fronted by the application-defined software cache. GPU threads call
/// ReadPage; a hit is served from HBM, a miss issues a storage access and
/// caches the returned line.
class BamArray {
 public:
  /// `cache` may be null (cache-less BaM access; every read hits storage).
  BamArray(StorageArray* storage, SoftwareCache* cache);

  uint32_t page_bytes() const { return storage_->page_bytes(); }
  StorageArray* storage() const { return storage_; }
  SoftwareCache* cache() const { return cache_; }

  /// Reads one page into `out`, counting cache/storage traffic. Under
  /// fault injection, Status::Unavailable means the storage read exhausted
  /// its retries (nothing was cached); the gather layer degrades the
  /// affected rows instead of failing (see FAULTS.md).
  ///
  /// `reuses` is how many registered window-buffer reuses this access
  /// drains from the cache (SoftwareCache::LookupInto): the page-coalesced
  /// gather services one read on behalf of `reuses` coalesced requests.
  /// The default of 1 is the plain uncoalesced access.
  ///
  /// `oc`, if given, receives the storage read's outcome (its penalty and
  /// serving replica, also on a dead-letter); a cache hit leaves it as is.
  Status ReadPage(uint64_t page, std::span<std::byte> out,
                  GatherCounts* counts, uint32_t reuses = 1,
                  StorageArray::ReadOutcome* oc = nullptr);

  /// Counting-mode access: identical cache behaviour (hit/miss, eviction,
  /// reuse-counter consumption) without moving payload bytes. Returns the
  /// same fault/retry outcome ReadPage would (Status::Unavailable on
  /// exhausted retries; failed reads insert no cache metadata). `reuses`
  /// and `oc` as in ReadPage.
  Status TouchPage(uint64_t page, GatherCounts* counts, uint32_t reuses = 1,
                   StorageArray::ReadOutcome* oc = nullptr);

 private:
  StorageArray* storage_;
  SoftwareCache* cache_;
};

}  // namespace gids::storage

#endif  // GIDS_STORAGE_BAM_ARRAY_H_
