#include "storage/bam_array.h"

#include <cstring>
#include <optional>

#include "common/check.h"

namespace gids::storage {

BamArray::BamArray(StorageArray* storage, SoftwareCache* cache)
    : storage_(storage), cache_(cache) {
  GIDS_CHECK(storage_ != nullptr);
  if (cache_ != nullptr) {
    GIDS_CHECK(cache_->line_bytes() == storage_->page_bytes());
  }
}

Status BamArray::ReadPage(uint64_t page, std::span<std::byte> out,
                          GatherCounts* counts, uint32_t reuses,
                          StorageArray::ReadOutcome* oc) {
  GIDS_CHECK(counts != nullptr);
  if (out.size() != page_bytes()) {
    return Status::InvalidArgument("output size must equal page size");
  }
  if (cache_ != nullptr) {
    // LookupInto copies under the owning shard's lock, so a concurrent
    // insertion into the same shard cannot tear the payload. A hit-time
    // integrity mismatch surfaces here as a miss (the line was
    // quarantined) and falls through to the repairing storage read.
    if (cache_->LookupInto(page, out, reuses)) {
      ++counts->cache_hits;
      return Status::OK();
    }
  }
  StorageArray::ReadOutcome local;
  if (oc == nullptr) oc = &local;
  GIDS_RETURN_IF_ERROR(storage_->ReadPage(page, out, oc));
  ++counts->storage_reads;
  if (cache_ != nullptr) {
    cache_->Insert(page, out,
                   oc->crc_known ? std::optional<uint32_t>(oc->crc)
                                 : std::nullopt,
                   oc->served_corrupt);
  }
  return Status::OK();
}

Status BamArray::TouchPage(uint64_t page, GatherCounts* counts,
                           uint32_t reuses, StorageArray::ReadOutcome* oc) {
  GIDS_CHECK(counts != nullptr);
  if (cache_ != nullptr && cache_->Touch(page, reuses)) {
    ++counts->cache_hits;
    return Status::OK();
  }
  StorageArray::ReadOutcome local;
  if (oc == nullptr) oc = &local;
  GIDS_RETURN_IF_ERROR(storage_->NoteRead(page, oc));
  ++counts->storage_reads;
  if (cache_ != nullptr) cache_->InsertMeta(page, oc->served_corrupt);
  return Status::OK();
}

}  // namespace gids::storage
