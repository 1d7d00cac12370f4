#include "common/random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>
#include <utility>
#include <vector>

namespace gids {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(7);
  for (uint64_t bound : {1ull, 2ull, 3ull, 17ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntIsRoughlyUniform) {
  Rng rng(99);
  constexpr uint64_t kBuckets = 10;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBuckets, 0);
  for (int i = 0; i < kSamples; ++i) counts[rng.UniformInt(kBuckets)]++;
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / kBuckets, kSamples / kBuckets * 0.1);
  }
}

TEST(RngTest, UniformRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= v == -3;
    saw_hi |= v == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    double v = rng.UniformDouble();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, NormalHasZeroMeanUnitVariance) {
  Rng rng(13);
  constexpr int kN = 20000;
  double sum = 0;
  double sum2 = 0;
  for (int i = 0; i < kN; ++i) {
    double v = rng.Normal();
    sum += v;
    sum2 += v * v;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.05);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.1);
}

TEST(RngTest, BernoulliMatchesProbability) {
  Rng rng(17);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(RngTest, ForkedStreamsAreDecorrelated) {
  Rng base(42);
  Rng a = base.Fork(1);
  Rng b = base.Fork(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngJumpTest, MatchesRepeatedNext) {
  for (uint64_t n : {0ull, 1ull, 63ull, 64ull, 255ull, 256ull, 1000003ull}) {
    Rng stepped(51);
    for (uint64_t i = 0; i < n; ++i) stepped.Next();
    Rng jumped(51);
    RngJump(n).Apply(jumped);
    EXPECT_TRUE(jumped == stepped) << n;
    EXPECT_EQ(jumped.Next(), stepped.Next()) << n;
  }
}

TEST(RngJumpTest, JumpsCompose) {
  const std::pair<uint64_t, uint64_t> cases[] = {
      {0, 7}, {1, 1}, {100, 28}, {4096, 368640}, {1ull << 40, 12345}};
  for (auto [a, b] : cases) {
    Rng twice(52);
    RngJump(a).Apply(twice);
    RngJump(b).Apply(twice);
    Rng once(52);
    RngJump(a + b).Apply(once);
    EXPECT_TRUE(twice == once) << a << "+" << b;
  }
}

TEST(ShuffleTest, IsPermutation) {
  Rng rng(3);
  std::vector<int> v(100);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  Shuffle(shuffled, rng);
  EXPECT_TRUE(std::is_permutation(v.begin(), v.end(), shuffled.begin()));
  EXPECT_NE(v, shuffled);  // astronomically unlikely to match
}

TEST(SampleWithoutReplacementTest, DistinctAndInRange) {
  Rng rng(21);
  auto picks = SampleWithoutReplacement(1000, 50, rng);
  EXPECT_EQ(picks.size(), 50u);
  std::set<uint64_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), 50u);
  for (uint64_t p : picks) EXPECT_LT(p, 1000u);
}

TEST(SampleWithoutReplacementTest, KAtLeastNReturnsAll) {
  Rng rng(22);
  auto picks = SampleWithoutReplacement(10, 10, rng);
  EXPECT_EQ(picks.size(), 10u);
  auto more = SampleWithoutReplacement(10, 25, rng);
  EXPECT_EQ(more.size(), 10u);
}

TEST(SampleWithoutReplacementTest, MarginalsAreUniform) {
  // Each element of [0, 20) should appear in a 5-of-20 sample with
  // probability 1/4.
  Rng rng(23);
  std::vector<int> counts(20, 0);
  constexpr int kTrials = 20000;
  for (int t = 0; t < kTrials; ++t) {
    for (uint64_t p : SampleWithoutReplacement(20, 5, rng)) counts[p]++;
  }
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(kTrials), 0.25, 0.02);
  }
}

TEST(SampleWithoutReplacementTest, OverloadsDrawAndPickAlike) {
  // The vector overload's hash-set duplicate check and the Into overload's
  // linear scan must pick the same values from the same draws.
  const std::pair<uint64_t, uint64_t> cases[] = {
      {10, 0}, {10, 3}, {10, 10}, {1000, 999}, {263051, 26305}};
  for (auto [n, k] : cases) {
    Rng a(24 + n + k);
    Rng b(24 + n + k);
    std::vector<uint64_t> into;
    SampleWithoutReplacementInto(n, k, a, into);
    EXPECT_EQ(SampleWithoutReplacement(n, k, b), into) << n << "/" << k;
    EXPECT_TRUE(a == b) << n << "/" << k;
  }
}

class SampleSizesTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SampleSizesTest, AlwaysDistinct) {
  Rng rng(31 + GetParam());
  auto picks = SampleWithoutReplacement(123, GetParam(), rng);
  std::set<uint64_t> unique(picks.begin(), picks.end());
  EXPECT_EQ(unique.size(), picks.size());
  EXPECT_EQ(picks.size(), std::min<uint64_t>(GetParam(), 123));
}

INSTANTIATE_TEST_SUITE_P(Sweep, SampleSizesTest,
                         ::testing::Values(1, 2, 5, 50, 122, 123, 200));

TEST(ExponentialTest, MeanOneAndPositive) {
  Rng rng(41);
  double sum = 0.0;
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) {
    double x = rng.Exponential();
    ASSERT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / kDraws, 1.0, 0.02);
}

TEST(PoissonTest, MatchesMeanAndVariance) {
  Rng rng(42);
  constexpr int kDraws = 20000;
  for (double mean : {0.5, 2.0, 8.0}) {
    double sum = 0.0, sq = 0.0;
    for (int i = 0; i < kDraws; ++i) {
      double k = static_cast<double>(rng.Poisson(mean));
      sum += k;
      sq += k * k;
    }
    double m = sum / kDraws;
    double var = sq / kDraws - m * m;
    // Poisson: mean == variance.
    EXPECT_NEAR(m, mean, 0.1 * mean + 0.05) << mean;
    EXPECT_NEAR(var, mean, 0.15 * mean + 0.1) << mean;
  }
}

TEST(PoissonTest, Deterministic) {
  Rng a(43), b(43);
  for (int i = 0; i < 200; ++i) EXPECT_EQ(a.Poisson(3.0), b.Poisson(3.0));
}

TEST(ZipfTest, SkewZeroIsUniform) {
  ZipfDistribution zipf(10, 0.0);
  Rng rng(44);
  std::vector<int> counts(10, 0);
  constexpr int kDraws = 50000;
  for (int i = 0; i < kDraws; ++i) counts[zipf.Sample(rng)]++;
  for (int c : counts) {
    EXPECT_NEAR(c / static_cast<double>(kDraws), 0.1, 0.01);
  }
}

TEST(ZipfTest, MarginalsMatchAnalyticPmf) {
  constexpr uint64_t kN = 20;
  constexpr double kSkew = 1.2;
  ZipfDistribution zipf(kN, kSkew);
  double total = 0.0;
  std::vector<double> pmf(kN);
  for (uint64_t r = 0; r < kN; ++r) {
    pmf[r] = 1.0 / std::pow(static_cast<double>(r + 1), kSkew);
    total += pmf[r];
  }
  for (double& p : pmf) p /= total;
  Rng rng(45);
  std::vector<int> counts(kN, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) counts[zipf.Sample(rng)]++;
  for (uint64_t r = 0; r < kN; ++r) {
    EXPECT_NEAR(counts[r] / static_cast<double>(kDraws), pmf[r],
                0.01 + 0.05 * pmf[r])
        << "rank " << r;
  }
  // Rank 0 dominates: the skew GatherGroup coalescing exploits.
  EXPECT_GT(counts[0], counts[kN - 1] * 5);
}

TEST(ZipfTest, SamplesInRangeAndDeterministic) {
  ZipfDistribution zipf(7, 0.9);
  Rng a(46), b(46);
  for (int i = 0; i < 500; ++i) {
    uint64_t ra = zipf.Sample(a);
    EXPECT_LT(ra, 7u);
    EXPECT_EQ(ra, zipf.Sample(b));
  }
}

TEST(ZipfDeathTest, EmptyDomainRejected) {
  EXPECT_DEATH(ZipfDistribution(0, 1.0), "non-empty rank domain");
}

}  // namespace
}  // namespace gids
