#include <gtest/gtest.h>

#include "sim/cpu_model.h"
#include "sim/gpu_model.h"
#include "sim/link_models.h"
#include "sim/system_model.h"

namespace gids::sim {
namespace {

TEST(CpuModelTest, PrepRatePlateausAtSixteenThreads) {
  // Fig. 3: CPU data preparation cannot exceed ~4.1 M requests/s and
  // plateaus at 16 threads.
  CpuModel cpu(CpuSpec::EpycServer());
  EXPECT_NEAR(cpu.PrepRequestRate(16), 4.1e6, 0.2e6);
  EXPECT_DOUBLE_EQ(cpu.PrepRequestRate(16), cpu.PrepRequestRate(32));
  EXPECT_LT(cpu.PrepRequestRate(1), cpu.PrepRequestRate(8));
  EXPECT_LT(cpu.PrepRequestRate(8), cpu.PrepRequestRate(16));
}

TEST(CpuModelTest, SamplingSlowsOnLargerStructures) {
  CpuModel cpu(CpuSpec::EpycServer());
  uint64_t edges = 1000000;
  TimeNs tiny = cpu.SamplingTime(edges, 5 * kMiB);
  TimeNs small = cpu.SamplingTime(edges, 100 * kMiB);
  TimeNs medium = cpu.SamplingTime(edges, 1 * kGiB);
  EXPECT_LT(tiny, small);
  EXPECT_LT(small, medium);
}

TEST(CpuModelTest, MmapGatherDominatedBySerialFaults) {
  // §2.3: page faults serialize; on the 980 Pro each fault costs the
  // device latency plus the OS fault path.
  CpuModel cpu(CpuSpec::EpycServer());
  SsdSpec samsung = SsdSpec::Samsung980Pro();
  TimeNs t = cpu.MmapGatherTime(0, 1000, samsung);
  TimeNs expected = 1000 * (samsung.read_latency_ns + UsToNs(10));
  EXPECT_NEAR(static_cast<double>(t), static_cast<double>(expected),
              0.01 * expected);
}

TEST(CpuModelTest, MmapHitsAreCheapComparedToFaults) {
  CpuModel cpu(CpuSpec::EpycServer());
  SsdSpec optane = SsdSpec::IntelOptane();
  TimeNs hits_only = cpu.MmapGatherTime(10000 * 4096, 0, optane);
  TimeNs faults_only = cpu.MmapGatherTime(0, 10000, optane);
  EXPECT_LT(hits_only * 10, faults_only);
}

TEST(CpuModelTest, AsyncReadsOverlapLatency) {
  // Ginex-style async reads with queue depth 64 beat serial faulting.
  CpuModel cpu(CpuSpec::EpycServer());
  SsdSpec samsung = SsdSpec::Samsung980Pro();
  TimeNs async64 = cpu.AsyncReadTime(10000, samsung, 64);
  TimeNs serial = cpu.MmapGatherTime(0, 10000, samsung);
  EXPECT_LT(async64 * 4, serial);
}

TEST(GpuModelTest, TrainTimeMatchesConsumptionRate) {
  // Fig. 3: training kernels consume ~29 M feature vectors/s.
  GpuModel gpu(GpuSpec::A100_40GB());
  TimeNs t = gpu.TrainTime(29000000);
  EXPECT_NEAR(NsToSec(t), 1.0, 0.01);
}

TEST(GpuModelTest, RequestGenFasterThanTrainingConsumption) {
  // Fig. 3's headline: GPU prep (77 M/s) outpaces training (29 M/s),
  // while CPU prep (4.1 M/s) cannot keep up.
  GpuModel gpu(GpuSpec::A100_40GB());
  CpuModel cpu(CpuSpec::EpycServer());
  double gpu_rate = 1e6 / NsToSec(gpu.RequestGenTime(1000000));
  double consume_rate = gpu.spec().train_consume_rate;
  EXPECT_GT(gpu_rate, consume_rate);
  EXPECT_LT(cpu.PrepRequestRate(16), consume_rate);
}

TEST(GpuModelTest, SamplingOccupancyRamp) {
  GpuModel gpu(GpuSpec::A100_40GB());
  // Per-edge cost is higher when the kernel cannot fill the GPU.
  TimeNs small = gpu.SamplingLayerTime(1000, kGiB);
  TimeNs large = gpu.SamplingLayerTime(1000000, kGiB);
  double small_per_edge = static_cast<double>(small) / 1000;
  double large_per_edge = static_cast<double>(large) / 1000000;
  EXPECT_GT(small_per_edge, large_per_edge);
}

TEST(GpuModelTest, SamplingTimeSumsLayers) {
  GpuModel gpu(GpuSpec::A100_40GB());
  uint64_t layers[3] = {1000, 5000, 25000};
  TimeNs total = gpu.SamplingTime(layers, 3, kGiB);
  TimeNs manual = gpu.SamplingLayerTime(1000, kGiB) +
                  gpu.SamplingLayerTime(5000, kGiB) +
                  gpu.SamplingLayerTime(25000, kGiB);
  EXPECT_EQ(total, manual);
}

TEST(GpuModelTest, GpuSamplingAdvantageGrowsWithStructure) {
  // Fig. 7's mechanism: both samplers slow down on larger structures, but
  // the GPU's latency hiding keeps its absolute penalty much smaller, so
  // the CPU-to-GPU time ratio widens with graph size.
  GpuModel gpu(GpuSpec::A100_40GB());
  CpuModel cpu(CpuSpec::EpycServer());
  uint64_t edges = 100000;
  auto ratio_at = [&](uint64_t structure_bytes) {
    return static_cast<double>(cpu.SamplingTime(edges, structure_bytes)) /
           static_cast<double>(
               gpu.SamplingLayerTime(edges, structure_bytes));
  };
  double small_ratio = ratio_at(5 * kMiB);
  double large_ratio = ratio_at(kGiB);
  EXPECT_GT(small_ratio, 1.0);  // GPU wins even on cache-resident graphs
  EXPECT_GT(large_ratio, small_ratio);
  EXPECT_GT(large_ratio, 3.0);  // paper: >3x on IGB-medium
}

TEST(LinkModelTest, TransferTimeIsLinear) {
  LinkModel pcie = LinkModel::PcieGen4x16();
  TimeNs one = pcie.TransferTime(1 * kGiB);
  TimeNs two = pcie.TransferTime(2 * kGiB);
  EXPECT_NEAR(static_cast<double>(two - pcie.base_latency_ns()),
              2.0 * static_cast<double>(one - pcie.base_latency_ns()),
              1e-6 * two);
}

TEST(LinkModelTest, PresetsMatchTable1) {
  EXPECT_NEAR(LinkModel::PcieGen4x16().bandwidth_bps(), 32e9, 1e9);
  EXPECT_NEAR(LinkModel::HbmA100().bandwidth_bps(), 1555e9, 1e9);
}

TEST(SystemConfigTest, MemoryScaling) {
  SystemConfig cfg = SystemConfig::Paper(SsdSpec::IntelOptane());
  cfg.memory_scale = 1.0 / 256.0;
  EXPECT_EQ(cfg.scaled_cpu_memory_bytes(), cfg.cpu_memory_bytes / 256);
  EXPECT_EQ(cfg.scaled_gpu_cache_bytes(), cfg.gpu_cache_bytes / 256);
}

TEST(SystemModelTest, SsdArrayPeakScales) {
  SystemModel one(SystemConfig::Paper(SsdSpec::IntelOptane(), 1));
  SystemModel two(SystemConfig::Paper(SsdSpec::IntelOptane(), 2));
  EXPECT_DOUBLE_EQ(two.ssd_array_peak_bps(), 2 * one.ssd_array_peak_bps());
}

}  // namespace
}  // namespace gids::sim
