#include "graph/generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace gids::graph {
namespace {

TEST(RmatTest, ProducesRequestedSize) {
  Rng rng(1);
  auto g = GenerateRmat(1000, 15000, RmatParams{}, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 1000u);
  EXPECT_EQ(g->num_edges(), 15000u);
}

TEST(RmatTest, NonPowerOfTwoNodeCount) {
  Rng rng(2);
  auto g = GenerateRmat(1000, 5000, RmatParams{}, rng);
  ASSERT_TRUE(g.ok());
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    for (NodeId u : g->in_neighbors(v)) EXPECT_LT(u, 1000u);
  }
}

TEST(RmatTest, RejectsBadProbabilities) {
  Rng rng(3);
  RmatParams p;
  p.a = 0.9;  // sums to 1.33
  EXPECT_FALSE(GenerateRmat(100, 100, p, rng).ok());
  EXPECT_FALSE(GenerateRmat(0, 100, RmatParams{}, rng).ok());
  // Each probability must lie in [0, 1], even when the four sum to 1.
  const RmatParams out_of_range[] = {
      {.a = -0.1, .b = 0.5, .c = 0.5, .d = 0.1},
      {.a = 0.5, .b = -0.2, .c = 0.5, .d = 0.2},
      {.a = 0.5, .b = 0.2, .c = -0.5, .d = 0.8},
      {.a = 0.3, .b = 0.3, .c = 0.5, .d = -0.1},
      {.a = 1.2, .b = -0.1, .c = -0.1, .d = 0.0},
      {.a = std::nan(""), .b = 0.19, .c = 0.19, .d = 0.05},
  };
  for (const RmatParams& bad : out_of_range) {
    auto g = GenerateRmat(100, 100, bad, rng);
    ASSERT_FALSE(g.ok());
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  }
  // Noise must lie in [0, 1): at 1 every perturbed weight may reach 0.
  for (double noise : {-0.01, 1.0, 1.5, std::nan("")}) {
    RmatParams bad;
    bad.noise = noise;
    auto g = GenerateRmat(100, 100, bad, rng);
    ASSERT_FALSE(g.ok()) << noise;
    EXPECT_EQ(g.status().code(), StatusCode::kInvalidArgument);
  }
  // The edges of the ranges are valid.
  EXPECT_TRUE(GenerateRmat(100, 100, {.a = 1.0, .b = 0.0, .c = 0.0, .d = 0.0},
                           rng)
                  .ok());
  EXPECT_TRUE(GenerateRmat(100, 100, {.noise = 0.0}, rng).ok());
  EXPECT_TRUE(GenerateRmat(100, 100, {.noise = 0.99}, rng).ok());
}

TEST(RmatTest, DeterministicInSeed) {
  Rng a(42);
  Rng b(42);
  auto ga = GenerateRmat(512, 4096, RmatParams{}, a);
  auto gb = GenerateRmat(512, 4096, RmatParams{}, b);
  ASSERT_TRUE(ga.ok());
  ASSERT_TRUE(gb.ok());
  EXPECT_EQ(ga->indices(), gb->indices());
  EXPECT_EQ(ga->indptr(), gb->indptr());
}

TEST(RmatTest, DegreeDistributionIsSkewed) {
  // The R-MAT defaults must produce a heavy-tailed in-degree distribution:
  // the top 1% of nodes should hold far more than 1% of the edges. This
  // skew is the mechanism behind the constant CPU buffer (§3.3).
  Rng rng(7);
  auto g = GenerateRmat(1 << 14, 1 << 18, RmatParams{}, rng);
  ASSERT_TRUE(g.ok());
  std::vector<EdgeIdx> degrees;
  degrees.reserve(g->num_nodes());
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    degrees.push_back(g->in_degree(v));
  }
  std::sort(degrees.rbegin(), degrees.rend());
  size_t top1pct = degrees.size() / 100;
  EdgeIdx top_edges = 0;
  for (size_t i = 0; i < top1pct; ++i) top_edges += degrees[i];
  double share = static_cast<double>(top_edges) / g->num_edges();
  EXPECT_GT(share, 0.10);  // >10x their fair share
}

TEST(RmatTest, UniformIsNotSkewed) {
  Rng rng(8);
  auto g = GenerateUniform(1 << 14, 1 << 18, rng);
  ASSERT_TRUE(g.ok());
  std::vector<EdgeIdx> degrees;
  for (NodeId v = 0; v < g->num_nodes(); ++v) {
    degrees.push_back(g->in_degree(v));
  }
  std::sort(degrees.rbegin(), degrees.rend());
  size_t top1pct = degrees.size() / 100;
  EdgeIdx top_edges = 0;
  for (size_t i = 0; i < top1pct; ++i) top_edges += degrees[i];
  double share = static_cast<double>(top_edges) / g->num_edges();
  EXPECT_LT(share, 0.05);
}

TEST(UniformTest, ProducesRequestedSize) {
  Rng rng(9);
  auto g = GenerateUniform(100, 1000, rng);
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_nodes(), 100u);
  EXPECT_EQ(g->num_edges(), 1000u);
}

TEST(UniformTest, RejectsZeroNodes) {
  Rng rng(10);
  EXPECT_FALSE(GenerateUniform(0, 10, rng).ok());
}

class RmatSizeTest
    : public ::testing::TestWithParam<std::pair<NodeId, EdgeIdx>> {};

TEST_P(RmatSizeTest, ValidCscAtAnySize) {
  Rng rng(100 + GetParam().first);
  auto g = GenerateRmat(GetParam().first, GetParam().second, RmatParams{}, rng);
  ASSERT_TRUE(g.ok());
  // FromCsc re-validates all invariants.
  auto check = CscGraph::FromCsc(g->indptr(), g->indices());
  EXPECT_TRUE(check.ok());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, RmatSizeTest,
    ::testing::Values(std::make_pair<NodeId, EdgeIdx>(1, 10),
                      std::make_pair<NodeId, EdgeIdx>(2, 100),
                      std::make_pair<NodeId, EdgeIdx>(100, 0),
                      std::make_pair<NodeId, EdgeIdx>(1023, 10000),
                      std::make_pair<NodeId, EdgeIdx>(1024, 10000),
                      std::make_pair<NodeId, EdgeIdx>(1025, 10000)));

}  // namespace
}  // namespace gids::graph
