// End-to-end tests of the per-iteration cost ledger (OBSERVABILITY.md
// "Per-iteration cost ledger"): every loader must satisfy the hard
// invariant ledger.Sum() == e2e_ns exactly, on every iteration, across
// the sampler/fault/integrity/coalescing configuration matrix and at any
// host_threads / cache_shards value. Built into concurrency_test so the
// tsan and asan presets exercise the attribution path too.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/gids_loader.h"
#include "loaders/ginex_loader.h"
#include "loaders/mmap_loader.h"
#include "obs/exemplar.h"
#include "obs/ledger.h"
#include "obs/metric_registry.h"
#include "obs/time_series.h"
#include "sampling/ladies_sampler.h"
#include "tests/test_util.h"

namespace gids::core {
namespace {

// Runs `iters` iterations and checks the exact invariant on each, plus
// returns the per-iteration ledgers for cross-config comparisons.
std::vector<obs::IterationLedger> RunAndCheck(loaders::DataLoader& loader,
                                              int iters) {
  std::vector<obs::IterationLedger> ledgers;
  for (int i = 0; i < iters; ++i) {
    auto batch = loader.Next();
    EXPECT_TRUE(batch.ok()) << batch.status().ToString();
    if (!batch.ok()) break;
    const loaders::IterationStats& st = batch->stats;
    EXPECT_EQ(st.ledger.Sum(), st.e2e_ns)
        << loader.name() << " iteration " << i << ": positive sum "
        << st.ledger.PositiveSum() << ", credit "
        << st.ledger.overlap_credit_ns;
    EXPECT_GE(st.ledger.sampling_ns, 0);
    EXPECT_GE(st.ledger.storage_ns, 0);
    EXPECT_GE(st.ledger.retry_backoff_ns, 0);
    EXPECT_GE(st.ledger.crc_verify_ns, 0);
    EXPECT_GE(st.ledger.degraded_fill_ns, 0);
    ledgers.push_back(st.ledger);
  }
  return ledgers;
}

struct MatrixConfig {
  std::string name;
  GidsOptions opts;
};

std::vector<MatrixConfig> BuildMatrix() {
  std::vector<MatrixConfig> configs;
  {
    GidsOptions o;
    configs.push_back({"gids_default", o});
  }
  {
    GidsOptions o;
    o.use_accumulator = false;
    o.use_window_buffering = false;
    configs.push_back({"gids_no_accumulator", o});
  }
  {
    GidsOptions o = GidsOptions::Bam();
    configs.push_back({"bam", o});
  }
  {
    GidsOptions o;
    o.coalesce_pages = true;
    configs.push_back({"gids_coalesced", o});
  }
  {
    GidsOptions o;
    o.fault_rate = 0.05;
    o.latency_spike_rate = 0.05;
    o.stuck_queue_rate = 0.01;
    configs.push_back({"gids_faults", o});
  }
  {
    GidsOptions o;
    o.verify_reads = true;
    o.verify_cache_hit = true;
    o.corruption_rate = 0.02;
    o.scrub_pages_per_iter = 4;
    configs.push_back({"gids_integrity", o});
  }
  {
    GidsOptions o;
    o.coalesce_pages = true;
    o.fault_rate = 0.05;
    o.verify_reads = true;
    o.corruption_rate = 0.02;
    o.offline_devices = {0};
    configs.push_back({"gids_coalesced_faults_integrity", o});
  }
  {
    GidsOptions o = GidsOptions::Bam();
    o.fault_rate = 0.08;
    o.verify_reads = true;
    configs.push_back({"bam_faults_integrity", o});
  }
  return configs;
}

TEST(LedgerInvariantTest, GidsBamConfigurationMatrix) {
  for (const MatrixConfig& cfg : BuildMatrix()) {
    SCOPED_TRACE(cfg.name);
    gids::testing::LoaderRig rig;
    GidsOptions opts = cfg.opts;
    opts.counting_mode = true;
    GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                      rig.system.get(), opts);
    RunAndCheck(loader, 32);
  }
}

TEST(LedgerInvariantTest, MatrixHoldsWithLadiesSampler) {
  // Same configuration sweep under a different sampler: the ledger is
  // attribution over whatever batches arrive, not neighborhood-specific.
  for (const MatrixConfig& cfg : BuildMatrix()) {
    SCOPED_TRACE(cfg.name);
    gids::testing::LoaderRig rig;
    sampling::LadiesSampler ladies(&rig.dataset->graph,
                                   {.layer_sizes = {48, 48}}, 5);
    GidsOptions opts = cfg.opts;
    opts.counting_mode = true;
    GidsLoader loader(rig.dataset.get(), &ladies, rig.seeds.get(),
                      rig.system.get(), opts);
    RunAndCheck(loader, 16);
  }
}

TEST(LedgerInvariantTest, HoldsAtAnyHostThreadsAndCacheShards) {
  // The exact invariant must hold at every (host_threads, cache_shards)
  // setting, and — since the ledger is derived from virtual-time
  // quantities only — runs differing *only* in host parallelism must
  // produce byte-identical ledgers (the determinism contract; different
  // cache_shards values legitimately change eviction order and therefore
  // the attribution itself).
  std::vector<std::vector<obs::IterationLedger>> runs;
  for (auto [threads, shards] : {std::pair<uint32_t, uint32_t>{1, 8},
                                 {4, 8},
                                 {8, 2}}) {
    gids::testing::LoaderRig rig;
    GidsOptions opts;
    opts.counting_mode = true;
    opts.host_threads = threads;
    opts.cache_shards = shards;
    opts.fault_rate = 0.05;
    opts.verify_reads = true;
    opts.corruption_rate = 0.02;
    opts.coalesce_pages = true;
    GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                      rig.system.get(), opts);
    runs.push_back(RunAndCheck(loader, 24));
  }
  // runs[0] (1 thread) vs runs[1] (4 threads): same shards, so identical.
  ASSERT_EQ(runs[0].size(), runs[1].size());
  for (size_t i = 0; i < runs[0].size(); ++i) {
    for (int c = 0; c < obs::IterationLedger::kNumComponents; ++c) {
      EXPECT_EQ(runs[0][i].component(c), runs[1][i].component(c))
          << "iteration " << i << " component "
          << obs::IterationLedger::ComponentName(c);
    }
  }
  // runs[2] only has to satisfy the invariant (checked in RunAndCheck).
  EXPECT_EQ(runs[2].size(), runs[0].size());
}

TEST(LedgerInvariantTest, MmapLoaderBalancesExactly) {
  gids::testing::LoaderRig rig;
  loaders::MmapLoaderOptions opts;
  opts.counting_mode = true;
  loaders::MmapLoader loader(rig.dataset.get(), rig.sampler.get(),
                             rig.seeds.get(), rig.system.get(), opts);
  auto ledgers = RunAndCheck(loader, 24);
  // The mmap pipeline fully serializes, so nothing overlaps.
  for (const auto& led : ledgers) EXPECT_EQ(led.overlap_credit_ns, 0);
}

TEST(LedgerInvariantTest, GinexLoaderBalancesExactly) {
  gids::testing::LoaderRig rig;
  loaders::GinexLoaderOptions opts;
  opts.counting_mode = true;
  opts.superbatch_iterations = 8;
  loaders::GinexLoader loader(rig.dataset.get(), rig.sampler.get(),
                              rig.seeds.get(), rig.system.get(), opts);
  auto ledgers = RunAndCheck(loader, 24);
  // Ginex pipelines sampling+changeset against aggregation: the credit is
  // exactly the min of the two, never negative.
  for (const auto& led : ledgers) EXPECT_GE(led.overlap_credit_ns, 0);
}

TEST(LedgerInvariantTest, FaultsBillIntoFaultComponents) {
  gids::testing::LoaderRig rig;
  GidsOptions opts;
  opts.counting_mode = true;
  opts.use_accumulator = false;
  opts.use_window_buffering = false;
  opts.fault_rate = 0.2;
  opts.verify_reads = true;
  opts.corruption_rate = 0.05;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);
  auto ledgers = RunAndCheck(loader, 32);
  TimeNs backoff = 0;
  TimeNs crc = 0;
  for (const auto& led : ledgers) {
    backoff += led.retry_backoff_ns;
    crc += led.crc_verify_ns;
  }
  // With these rates the run must attribute nonzero fault-path time.
  EXPECT_GT(backoff, 0);
  EXPECT_GT(crc, 0);
}

TEST(LedgerSinkTest, TimelineAndExemplarsMatchTheRun) {
  gids::testing::LoaderRig rig;
  obs::TimeSeries timeline(/*window_ns=*/200 * kNsPerUs);
  obs::ExemplarReservoir exemplars(4);
  GidsOptions opts;
  opts.counting_mode = true;
  opts.timeline = &timeline;
  opts.exemplars = &exemplars;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);

  constexpr int kIterations = 40;
  std::vector<TimeNs> e2e;
  for (int i = 0; i < kIterations; ++i) {
    auto batch = loader.Next();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    e2e.push_back(batch->stats.e2e_ns);
  }

  // Every iteration landed in exactly one window; the merged histogram is
  // the run distribution.
  EXPECT_EQ(timeline.total_iterations(),
            static_cast<uint64_t>(kIterations));
  uint64_t in_windows = 0;
  for (const auto& w : timeline.windows()) in_windows += w.iterations;
  EXPECT_EQ(in_windows, static_cast<uint64_t>(kIterations));
  Histogram merged = timeline.MergedHistogram();
  EXPECT_EQ(merged.count(), static_cast<uint64_t>(kIterations));
  TimeNs max_e2e = 0;
  for (TimeNs v : e2e) max_e2e = std::max(max_e2e, v);
  EXPECT_EQ(merged.max(), static_cast<uint64_t>(max_e2e));

  // The exemplars are exactly the slowest iterations of the run.
  auto snap = exemplars.Snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(exemplars.offered(), static_cast<uint64_t>(kIterations));
  std::vector<TimeNs> sorted = e2e;
  std::sort(sorted.rbegin(), sorted.rend());
  for (size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].e2e_ns, sorted[i]) << i;
    EXPECT_EQ(snap[i].ledger.Sum(), snap[i].e2e_ns);
  }
}

TEST(LedgerSinkTest, LedgerMetricsMatchStatsSums) {
  gids::testing::LoaderRig rig;
  obs::MetricRegistry metrics;
  obs::TimeSeries timeline(1 * kNsPerMs);
  GidsOptions opts;
  opts.counting_mode = true;
  opts.metrics = &metrics;
  opts.timeline = &timeline;  // attribution on => ledger series exported
  opts.fault_rate = 0.1;
  opts.verify_reads = true;
  GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                    rig.system.get(), opts);

  obs::IterationLedger total;
  for (int i = 0; i < 24; ++i) {
    auto batch = loader.Next();
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    total.Add(batch->stats.ledger);
  }

  for (int c = 0; c < obs::IterationLedger::kNumComponents - 1; ++c) {
    obs::Counter* counter = metrics.GetCounter(
        "gids_ledger_ns_total",
        {{"loader", "GIDS"},
         {"component", obs::IterationLedger::ComponentName(c)}});
    EXPECT_EQ(counter->value(), static_cast<uint64_t>(total.component(c)))
        << obs::IterationLedger::ComponentName(c);
  }
  // The signed credit is exported as a gauge callback.
  bool saw_credit = false;
  for (const auto& m : metrics.Snapshot()) {
    if (m.name == "gids_ledger_overlap_credit_ns_total") {
      saw_credit = true;
      EXPECT_DOUBLE_EQ(m.value,
                       static_cast<double>(total.overlap_credit_ns));
    }
  }
  EXPECT_TRUE(saw_credit);
}

TEST(LedgerSinkTest, SnapshotAfterLoaderDestructionReadsFrozenValues) {
  // The registry-lifetime contract (MetricRegistry::UnbindAll): loader
  // destructors freeze their pull-style series, so snapshots taken after
  // the loader is gone keep working and keep the final values.
  obs::MetricRegistry metrics;
  std::vector<obs::MetricSnapshot> live;
  {
    gids::testing::LoaderRig rig;
    obs::TimeSeries timeline(1 * kNsPerMs);
    GidsOptions opts;
    opts.counting_mode = true;
    opts.metrics = &metrics;
    opts.timeline = &timeline;
    opts.host_threads = 4;  // thread-pool gauges are pull-style too
    GidsLoader loader(rig.dataset.get(), rig.sampler.get(), rig.seeds.get(),
                      rig.system.get(), opts);
    for (int i = 0; i < 12; ++i) {
      auto batch = loader.Next();
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    }
    live = metrics.Snapshot();
  }
  // Loader (and its cache/pool/storage components) destroyed: snapshots
  // must neither crash nor drift — every pull-style series now reads its
  // frozen destruction-time value. (Pool gauges may differ from the
  // mid-run `live` reading: the look-ahead sample batch drains before
  // the freeze. Owned counters must match exactly.)
  std::vector<obs::MetricSnapshot> frozen = metrics.Snapshot();
  std::vector<obs::MetricSnapshot> again = metrics.Snapshot();
  ASSERT_EQ(frozen.size(), live.size());
  ASSERT_EQ(again.size(), frozen.size());
  for (size_t i = 0; i < frozen.size(); ++i) {
    EXPECT_EQ(frozen[i].name, live[i].name);
    if (frozen[i].type != obs::MetricType::kHistogram) {
      EXPECT_DOUBLE_EQ(again[i].value, frozen[i].value) << frozen[i].name;
      if (frozen[i].type == obs::MetricType::kCounter) {
        EXPECT_GE(frozen[i].value, live[i].value) << frozen[i].name;
      }
    }
  }
  EXPECT_FALSE(metrics.ToJson().empty());
  // Mmap and Ginex freeze their series the same way.
  {
    gids::testing::LoaderRig rig;
    loaders::MmapLoaderOptions mopts;
    mopts.counting_mode = true;
    mopts.metrics = &metrics;
    loaders::MmapLoader mmap(rig.dataset.get(), rig.sampler.get(),
                             rig.seeds.get(), rig.system.get(), mopts);
    ASSERT_TRUE(mmap.Next().ok());
    loaders::GinexLoaderOptions gopts;
    gopts.counting_mode = true;
    gopts.superbatch_iterations = 4;
    gopts.metrics = &metrics;
    loaders::GinexLoader ginex(rig.dataset.get(), rig.sampler.get(),
                               rig.seeds.get(), rig.system.get(), gopts);
    ASSERT_TRUE(ginex.Next().ok());
  }
  EXPECT_FALSE(metrics.Snapshot().empty());
}

}  // namespace
}  // namespace gids::core
