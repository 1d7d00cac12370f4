#ifndef GIDS_SAMPLING_SAMPLER_H_
#define GIDS_SAMPLING_SAMPLER_H_

#include <cstdint>
#include <span>
#include <string_view>

#include "graph/types.h"
#include "sampling/minibatch.h"

namespace gids::sampling {

/// Interface shared by the sampling strategies (uniform neighborhood
/// sampling, LADIES layer-wise sampling, and Cluster-GCN).
/// Samplers are deterministic in their construction seed; the same seed
/// and seed-node sequence yields the same mini-batches regardless of which
/// dataloader drives them, which is what makes cross-dataloader
/// comparisons apples-to-apples.
class Sampler {
 public:
  virtual ~Sampler() = default;

  virtual std::string_view name() const = 0;
  virtual int num_layers() const = 0;

  /// Builds the computational graph for training iteration `iteration`
  /// into `*out` (previous contents are discarded; block/edge vector
  /// capacity is reused — the zero-allocation hot path feeds each loader's
  /// recycled MiniBatch back through here). All randomness derives from
  /// (construction seed, iteration) via an independent RNG stream per
  /// iteration, so calls are stateless: the GIDS loader samples the
  /// accumulator-merged future iterations concurrently and out of order,
  /// yet every iteration's batch is the one a serial in-order walk would
  /// have produced.
  ///
  /// Implementations that cannot honor that purity must override
  /// concurrent_safe() to return false; such samplers are only driven
  /// serially, with strictly increasing iterations.
  virtual void SampleAtInto(std::span<const graph::NodeId> seeds,
                            uint64_t iteration, MiniBatch* out) = 0;

  /// SampleAtInto returning a fresh MiniBatch.
  MiniBatch SampleAt(std::span<const graph::NodeId> seeds,
                     uint64_t iteration) {
    MiniBatch batch;
    SampleAtInto(seeds, iteration, &batch);
    return batch;
  }

  /// True when SampleAtInto is a pure function of (seed, iteration, seeds)
  /// and safe to call from several threads at once. The GIDS loader then
  /// calls it on its pool's threads, also between and after its Next()
  /// calls: a look-ahead sample batch stays in flight until a later Next()
  /// joins it or the loader is destroyed. Whatever such a sampler writes
  /// beside `out` (a trace log, say) must be safe to read while the loader
  /// lives, or be read only after the loader is gone.
  virtual bool concurrent_safe() const { return true; }

  /// Stateful convenience wrappers: SampleAtInto with an internal monotone
  /// iteration counter starting at 0. Serial drivers (mmap/Ginex loaders,
  /// benches) use these and stay comparable with loaders that index
  /// iterations explicitly.
  MiniBatch Sample(std::span<const graph::NodeId> seeds) {
    return SampleAt(seeds, next_iteration_++);
  }
  void SampleInto(std::span<const graph::NodeId> seeds, MiniBatch* out) {
    SampleAtInto(seeds, next_iteration_++, out);
  }

 private:
  uint64_t next_iteration_ = 0;
};

}  // namespace gids::sampling

#endif  // GIDS_SAMPLING_SAMPLER_H_
