#include "storage/block_device.h"

#include <utility>

#include "common/check.h"

namespace gids::storage {

FunctionBlockDevice::FunctionBlockDevice(uint64_t num_blocks,
                                         uint32_t block_bytes, FillFn fill)
    : num_blocks_(num_blocks),
      block_bytes_(block_bytes),
      fill_(std::move(fill)) {
  GIDS_CHECK(block_bytes > 0);
  GIDS_CHECK(fill_ != nullptr);
}

Status FunctionBlockDevice::ReadBlock(uint64_t lba,
                                      std::span<std::byte> out) const {
  if (lba >= num_blocks_) return Status::OutOfRange("lba beyond device");
  if (out.size() != block_bytes_) {
    return Status::InvalidArgument("output size must equal block size");
  }
  fill_(lba, out);
  return Status::OK();
}

}  // namespace gids::storage
