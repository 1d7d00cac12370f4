#ifndef GIDS_STORAGE_BLOCK_DEVICE_H_
#define GIDS_STORAGE_BLOCK_DEVICE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

#include "common/status.h"

namespace gids::storage {

/// Functional block-device interface: the data plane of one simulated NVMe
/// namespace. Timing is *not* modeled here (see sim::SsdModel); this layer
/// only guarantees that every byte a dataloader gathers is the byte the
/// device holds, so end-to-end correctness is checkable.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  virtual uint32_t block_bytes() const = 0;
  virtual uint64_t num_blocks() const = 0;

  /// Reads block `lba` into `out` (size must equal block_bytes()).
  virtual Status ReadBlock(uint64_t lba, std::span<std::byte> out) const = 0;
};

/// Device whose contents are computed on demand by a fill function. Used to
/// back terabyte-scale synthetic feature files without materializing them:
/// the FeatureStore's FillPage regenerates any page's bytes exactly.
class FunctionBlockDevice : public BlockDevice {
 public:
  using FillFn = std::function<void(uint64_t lba, std::span<std::byte> out)>;

  FunctionBlockDevice(uint64_t num_blocks, uint32_t block_bytes, FillFn fill);

  uint32_t block_bytes() const override { return block_bytes_; }
  uint64_t num_blocks() const override { return num_blocks_; }

  Status ReadBlock(uint64_t lba, std::span<std::byte> out) const override;

 private:
  uint64_t num_blocks_;
  uint32_t block_bytes_;
  FillFn fill_;
};

}  // namespace gids::storage

#endif  // GIDS_STORAGE_BLOCK_DEVICE_H_
