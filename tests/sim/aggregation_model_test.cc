#include "sim/aggregation_model.h"

#include <gtest/gtest.h>

namespace gids::sim {
namespace {

SystemModel OptaneSystem(int n_ssd = 1) {
  return SystemModel(SystemConfig::Paper(SsdSpec::IntelOptane(), n_ssd));
}

TEST(AggregationModelTest, EmptyCountsAreFree) {
  SystemModel sys = OptaneSystem();
  AggregationTiming t = ComputeAggregationTiming(sys, AggregationCounts{});
  EXPECT_EQ(t.total_ns, 0);
}

TEST(AggregationModelTest, PureSsdTrafficBoundedByPeak) {
  SystemModel sys = OptaneSystem();
  AggregationCounts c;
  c.ssd_reads = 1000000;
  c.outstanding_accesses = 100000;
  AggregationTiming t = ComputeAggregationTiming(sys, c);
  EXPECT_LE(t.ssd_bandwidth_bps, 1.02 * sys.ssd_array_peak_bps());
  EXPECT_GT(t.ssd_bandwidth_bps, 0.9 * sys.ssd_array_peak_bps());
}

TEST(AggregationModelTest, LowConcurrencyHurtsBandwidth) {
  SystemModel sys = OptaneSystem();
  AggregationCounts starved;
  starved.ssd_reads = 100000;
  starved.outstanding_accesses = 4;
  AggregationCounts saturated = starved;
  saturated.outstanding_accesses = 10000;
  double bw_starved =
      ComputeAggregationTiming(sys, starved).ssd_bandwidth_bps;
  double bw_saturated =
      ComputeAggregationTiming(sys, saturated).ssd_bandwidth_bps;
  EXPECT_LT(bw_starved * 2, bw_saturated);
}

TEST(AggregationModelTest, CpuBufferRaisesEffectiveBandwidthBeyondSsd) {
  // The §3.3 effect: redirecting hot traffic to the CPU buffer lifts
  // effective bandwidth above the single-SSD peak, toward PCIe.
  SystemModel sys = OptaneSystem();
  AggregationCounts ssd_only;
  ssd_only.ssd_reads = 1000000;
  ssd_only.outstanding_accesses = 100000;

  AggregationCounts redirected;
  redirected.ssd_reads = 300000;
  redirected.cpu_buffer_hits = 700000;
  redirected.outstanding_accesses = 100000;

  double eff_ssd =
      ComputeAggregationTiming(sys, ssd_only).effective_bandwidth_bps;
  double eff_buf =
      ComputeAggregationTiming(sys, redirected).effective_bandwidth_bps;
  EXPECT_GT(eff_buf, 2.0 * eff_ssd);
  EXPECT_GT(eff_buf, sys.ssd_array_peak_bps());
  EXPECT_LE(eff_buf, sys.pcie().bandwidth_bps() * 1.01);
}

TEST(AggregationModelTest, CacheHitsRideForFree) {
  // GPU-cache hits do not consume PCIe; they raise effective bandwidth
  // above the ingress bandwidth (the Fig. 10 baseline's 6.6 > 5.8 GB/s).
  SystemModel sys = OptaneSystem();
  AggregationCounts c;
  c.ssd_reads = 900000;
  c.gpu_cache_hits = 100000;
  c.outstanding_accesses = 100000;
  AggregationTiming t = ComputeAggregationTiming(sys, c);
  EXPECT_GT(t.effective_bandwidth_bps, t.pcie_ingress_bps);
  EXPECT_GT(t.effective_bandwidth_bps, sys.ssd_array_peak_bps());
}

TEST(AggregationModelTest, PcieFloorCapsIngress) {
  SystemModel sys = OptaneSystem(8);  // 8 Optane SSDs ~ 49 GB/s > PCIe
  AggregationCounts c;
  c.ssd_reads = 4000000;
  c.outstanding_accesses = 1000000;
  AggregationTiming t = ComputeAggregationTiming(sys, c);
  EXPECT_LE(t.pcie_ingress_bps, sys.pcie().bandwidth_bps() * 1.01);
}

TEST(AggregationModelTest, RedirectInterferenceSlowsSsdPath) {
  // §4.3: warps copying CPU-buffer data cannot enqueue storage accesses,
  // so the same SSD traffic takes slightly longer when a large share of
  // accesses is redirected.
  SystemConfig cfg = SystemConfig::Paper(SsdSpec::IntelOptane());
  cfg.redirect_interference = 0.3;
  SystemModel sys(cfg);

  AggregationCounts no_redirect;
  no_redirect.ssd_reads = 100000;
  no_redirect.outstanding_accesses = 2000;

  AggregationCounts with_redirect = no_redirect;
  with_redirect.cpu_buffer_hits = 100000;  // 50% redirect share
  // Same total outstanding; the SSD-bound share of the window shrinks.

  TimeNs t_plain = ComputeAggregationTiming(sys, no_redirect).ssd_ns;
  TimeNs t_redirect = ComputeAggregationTiming(sys, with_redirect).ssd_ns;
  EXPECT_GE(t_redirect, t_plain);
}

TEST(AggregationModelTest, FeatureByteAccounting) {
  SystemModel sys = OptaneSystem();
  AggregationCounts c;
  c.ssd_reads = 10;
  c.cpu_buffer_hits = 20;
  c.gpu_cache_hits = 30;
  c.outstanding_accesses = 60;
  AggregationTiming t = ComputeAggregationTiming(sys, c);
  EXPECT_EQ(t.pcie_ingress_bytes, (10u + 20u) * 4096u);
  EXPECT_EQ(t.feature_bytes, 60u * 4096u);
}

class MoreSsdsTest : public ::testing::TestWithParam<int> {};

TEST_P(MoreSsdsTest, SsdBandwidthScalesUntilPcie) {
  SystemModel sys = OptaneSystem(GetParam());
  AggregationCounts c;
  c.ssd_reads = 2000000;
  c.outstanding_accesses = 500000;
  AggregationTiming t = ComputeAggregationTiming(sys, c);
  double expected =
      std::min(sys.ssd_array_peak_bps(), sys.pcie().bandwidth_bps());
  EXPECT_NEAR(t.ssd_bandwidth_bps, expected, 0.1 * expected);
}

INSTANTIATE_TEST_SUITE_P(SsdScaling, MoreSsdsTest,
                         ::testing::Values(1, 2, 4, 5, 8, 10));

}  // namespace
}  // namespace gids::sim
