// Parity of the blocked, multi-threaded R-MAT generator against the serial
// loop it replaced: the CSC arrays and the caller's final Rng state must be
// identical at any core count. Built into concurrency_test, so the tsan
// preset runs the parallel waves under ThreadSanitizer.

#include <gtest/gtest.h>

#include <bit>
#include <ostream>
#include <utility>
#include <vector>

#include "graph/generator.h"

namespace gids::graph {
namespace {

// The serial generator, kept verbatim as the oracle.
std::pair<uint64_t, uint64_t> OracleRmatEdge(int levels, const RmatParams& p,
                                             Rng& rng) {
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
  return {row, col};
}

StatusOr<CscGraph> OracleRmat(NodeId num_nodes, EdgeIdx num_edges,
                              const RmatParams& params, Rng& rng) {
  int levels = 64 - std::countl_zero(static_cast<uint64_t>(num_nodes) - 1);
  if (num_nodes == 1) levels = 0;

  std::vector<NodeId> src;
  std::vector<NodeId> dst;
  src.reserve(num_edges);
  dst.reserve(num_edges);
  while (src.size() < num_edges) {
    auto [row, col] = OracleRmatEdge(levels, params, rng);
    if (row >= num_nodes || col >= num_nodes) continue;  // rejection
    src.push_back(static_cast<NodeId>(row));
    dst.push_back(static_cast<NodeId>(col));
  }
  return CscGraph::FromCoo(num_nodes, src, dst);
}

constexpr RmatParams kIgb{.a = 0.35, .b = 0.287, .c = 0.287, .d = 0.076};
constexpr RmatParams kNoNoise{.noise = 0.0};

struct ParityCase {
  const char* name;
  NodeId nodes;
  EdgeIdx edges;
  RmatParams params;
};

// Names the ctest cases (.../n1_e10 and so on).
void PrintTo(const ParityCase& pc, std::ostream* os) { *os << pc.name; }

class RmatParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(RmatParityTest, MatchesSerialLoop) {
  const ParityCase& pc = GetParam();
  Rng oracle_rng(1000 + pc.nodes);
  Rng rng(1000 + pc.nodes);
  auto want = OracleRmat(pc.nodes, pc.edges, pc.params, oracle_rng);
  auto got = GenerateRmat(pc.nodes, pc.edges, pc.params, rng);
  ASSERT_TRUE(want.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->indptr(), want->indptr());
  EXPECT_EQ(got->indices(), want->indices());
  // BuildDataset forks the train-id stream from the caller's state.
  EXPECT_TRUE(rng == oracle_rng);
  EXPECT_EQ(rng.Next(), oracle_rng.Next());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RmatParityTest,
    ::testing::Values(
        ParityCase{"n1_e10", 1, 10, RmatParams{}},
        ParityCase{"n2_e100", 2, 100, RmatParams{}},
        ParityCase{"n100_e0", 100, 0, RmatParams{}},
        ParityCase{"n1023_e10000", 1023, 10000, RmatParams{}},
        ParityCase{"n1024_e10000", 1024, 10000, RmatParams{}},
        ParityCase{"n1025_e10000", 1025, 10000, RmatParams{}},
        ParityCase{"n1000_e15000_noise", 1000, 15000, RmatParams{}},
        ParityCase{"n1000_e15000_no_noise", 1000, 15000, kNoNoise},
        // Accepts about a third of the candidates, so the remaining edges
        // need several multi-block waves before the serial tail.
        ParityCase{"igb_n16385_e60000", 16385, 60000, kIgb},
        // A power of two rejects nothing: every block is full, and the
        // last edge ends a block exactly.
        ParityCase{"n4096_e32768_pow2", 4096, 32768, RmatParams{}}));

}  // namespace
}  // namespace gids::graph
