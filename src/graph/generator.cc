#include "graph/generator.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace gids::graph {
namespace {

// Candidate edges per block of the parallel generator. Each block starts
// from the caller's state jumped ahead by whole blocks of draws.
constexpr uint64_t kBlockCandidates = 4096;

// RNG draws per recursion level: the quadrant pick, plus one perturbation
// per quadrant when the probabilities are noisy.
int DrawsPerLevel(const RmatParams& p) { return p.noise > 0 ? 5 : 1; }

// Draws one R-MAT candidate edge within the 2^levels x 2^levels adjacency
// matrix, recursing one quadrant per bit level with multiplicative noise,
// and returns whether it lies inside num_nodes x num_nodes (then it is in
// `src`, `dst`). Every candidate consumes exactly levels x DrawsPerLevel
// calls to rng.Next(), so candidate k starts k times that many steps after
// the first. A candidate whose row or column prefix already reaches
// num_nodes is rejected at once: it burns its remaining draws and skips
// the noise arithmetic, which accepted candidates run unchanged.
bool RmatEdge(int levels, NodeId num_nodes, const RmatParams& p, Rng& rng,
              NodeId& src, NodeId& dst) {
  uint64_t row = 0;
  uint64_t col = 0;
  double a = p.a;
  double b = p.b;
  double c = p.c;
  for (int level = 0; level < levels; ++level) {
    double ab = a + b;
    double abc = a + b + c;
    double r = rng.UniformDouble();
    uint64_t bit = 1ull << (levels - 1 - level);
    if (r >= ab) row |= bit;
    if ((r >= a && r < ab) || r >= abc) col |= bit;
    if (row >= num_nodes || col >= num_nodes) {
      const int burn = (levels - level) * DrawsPerLevel(p) - 1;
      for (int i = 0; i < burn; ++i) rng.Next();
      return false;
    }
    if (p.noise > 0) {
      // Perturb the quadrant probabilities, then renormalize.
      double na = a * (1.0 - p.noise + 2.0 * p.noise * rng.UniformDouble());
      double nb = b * (1.0 - p.noise + 2.0 * p.noise * rng.UniformDouble());
      double nc = c * (1.0 - p.noise + 2.0 * p.noise * rng.UniformDouble());
      double nd = (1.0 - a - b - c) *
                  (1.0 - p.noise + 2.0 * p.noise * rng.UniformDouble());
      double norm = na + nb + nc + nd;
      a = na / norm;
      b = nb / norm;
      c = nc / norm;
    }
  }
  src = static_cast<NodeId>(row);
  dst = static_cast<NodeId>(col);
  return true;
}

}  // namespace

StatusOr<CscGraph> GenerateRmat(NodeId num_nodes, EdgeIdx num_edges,
                                const RmatParams& params, Rng& rng) {
  if (num_nodes == 0) return Status::InvalidArgument("num_nodes must be > 0");
  for (double q : {params.a, params.b, params.c, params.d}) {
    if (!(q >= 0.0 && q <= 1.0)) {
      return Status::InvalidArgument("RMAT probabilities must be in [0, 1]");
    }
  }
  if (!(params.noise >= 0.0 && params.noise < 1.0)) {
    return Status::InvalidArgument("RMAT noise must be in [0, 1)");
  }
  double sum = params.a + params.b + params.c + params.d;
  if (std::abs(sum - 1.0) > 1e-9) {
    return Status::InvalidArgument("RMAT probabilities must sum to 1");
  }
  int levels = 64 - std::countl_zero(static_cast<uint64_t>(num_nodes) - 1);
  if (num_nodes == 1) levels = 0;

  // Block b of a wave writes its accepted edges to its own kBlockCandidates
  // slots past the filled prefix; a wave never holds more blocks than the
  // remaining edges fill, so one block of headroom suffices.
  std::vector<NodeId> src;
  std::vector<NodeId> dst;
  src.reserve(num_edges + kBlockCandidates);
  dst.reserve(num_edges + kBlockCandidates);
  {
    const size_t threads =
        std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 16);
    std::unique_ptr<ThreadPool> pool;
    std::optional<RngJump> jump;  // one block's worth of draws
    std::vector<Rng> starts;
    std::vector<size_t> accepted;
    for (;;) {
      const uint64_t remaining = num_edges - src.size();
      const size_t blocks = std::min<uint64_t>(
          4 * threads, (remaining + kBlockCandidates - 1) / kBlockCandidates);
      if (blocks <= 1) break;
      if (pool == nullptr) {
        pool = std::make_unique<ThreadPool>(threads);
        jump.emplace(kBlockCandidates * static_cast<uint64_t>(levels) *
                     DrawsPerLevel(params));
      }
      starts.assign(blocks, rng);
      for (size_t b = 1; b < blocks; ++b) {
        starts[b] = starts[b - 1];
        jump->Apply(starts[b]);
      }
      accepted.assign(blocks, 0);
      const size_t base = src.size();
      src.resize(base + blocks * kBlockCandidates);
      dst.resize(base + blocks * kBlockCandidates);
      pool->ParallelFor(blocks, [&](size_t b) {
        Rng block_rng = starts[b];
        NodeId* s = src.data() + base + b * kBlockCandidates;
        NodeId* d = dst.data() + base + b * kBlockCandidates;
        size_t n = 0;
        for (uint64_t k = 0; k < kBlockCandidates; ++k) {
          if (RmatEdge(levels, num_nodes, params, block_rng, s[n], d[n])) ++n;
        }
        accepted[b] = n;
      });
      // Compact the blocks' edges in block order, up to the block that
      // holds the last edge needed.
      size_t filled = base;
      size_t b = 0;
      for (; b < blocks && filled + accepted[b] < num_edges; ++b) {
        const size_t from = base + b * kBlockCandidates;
        if (from != filled) {
          std::copy(src.begin() + from, src.begin() + from + accepted[b],
                    src.begin() + filled);
          std::copy(dst.begin() + from, dst.begin() + from + accepted[b],
                    dst.begin() + filled);
        }
        filled += accepted[b];
      }
      src.resize(filled);
      dst.resize(filled);
      if (b < blocks) {
        // Replay block b below from its start, so the caller's Rng ends
        // after the last needed edge, where the serial loop leaves it.
        rng = starts[b];
        break;
      }
      rng = starts.back();
      jump->Apply(rng);
    }
  }  // The pool's threads and the jump are gone before FromCoo runs.

  // The serial loop: a one-block wave, or the replay of a wave's last block.
  NodeId s = 0;
  NodeId d = 0;
  while (src.size() < num_edges) {
    if (RmatEdge(levels, num_nodes, params, rng, s, d)) {
      src.push_back(s);
      dst.push_back(d);
    }
  }
  return CscGraph::FromCoo(num_nodes, src, dst);
}

StatusOr<CscGraph> GenerateUniform(NodeId num_nodes, EdgeIdx num_edges,
                                   Rng& rng) {
  if (num_nodes == 0) return Status::InvalidArgument("num_nodes must be > 0");
  std::vector<NodeId> src(num_edges);
  std::vector<NodeId> dst(num_edges);
  for (EdgeIdx i = 0; i < num_edges; ++i) {
    src[i] = static_cast<NodeId>(rng.UniformInt(num_nodes));
    dst[i] = static_cast<NodeId>(rng.UniformInt(num_nodes));
  }
  return CscGraph::FromCoo(num_nodes, src, dst);
}

}  // namespace gids::graph
