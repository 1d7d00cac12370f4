// Unit and end-to-end coverage for the online inference-serving tier
// (DESIGN.md §14): admission control, batch forming, SLO scheduling,
// deterministic traffic generation, and the InferenceServer event loop's
// exactly-balanced admission/deadline and ledger books. Compiled into the
// `serving`-labelled binary (asan re-run in tools/check.sh) and into the
// tsan preset's surface.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "common/check.h"
#include "common/random.h"
#include "graph/generator.h"
#include "obs/metric_registry.h"
#include "obs/time_series.h"
#include "sampling/neighbor_sampler.h"
#include "serving/batch_former.h"
#include "serving/inference_server.h"
#include "serving/request_queue.h"
#include "serving/slo_scheduler.h"
#include "serving/traffic_gen.h"
#include "sim/ssd_model.h"

namespace gids::serving {
namespace {

// --- RequestQueue ----------------------------------------------------------

TEST(RequestQueueTest, AdmitsUntilFullThenSheds) {
  RequestQueue q(2);
  EXPECT_TRUE(q.TryAdmit());
  EXPECT_TRUE(q.TryAdmit());
  EXPECT_FALSE(q.TryAdmit());  // full: shed
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(q.offered(), 3u);
  EXPECT_EQ(q.admitted(), 2u);
  EXPECT_EQ(q.shed(), 1u);
  q.Release();
  EXPECT_TRUE(q.TryAdmit());  // slot freed
  EXPECT_EQ(q.max_depth_seen(), 2u);
  EXPECT_EQ(q.admitted() + q.shed(), q.offered());
}

TEST(RequestQueueDeathTest, ZeroDepthRejected) {
  EXPECT_DEATH(RequestQueue(0), "max_depth > 0");
}

// --- BatchFormer -----------------------------------------------------------

Request Req(uint64_t id, TimeNs arrival) {
  Request r;
  r.id = id;
  r.arrival_ns = arrival;
  r.deadline_ns = arrival + 1000000;
  return r;
}

TEST(BatchFormerTest, SizeCapClosesImmediately) {
  BatchFormer f(/*max_requests=*/2, /*window_ns=*/1000);
  FormedBatch closed;
  bool opened = false;
  EXPECT_FALSE(f.Add(Req(0, 10), 10, &closed, &opened));
  EXPECT_TRUE(opened);
  EXPECT_TRUE(f.Add(Req(1, 20), 20, &closed, &opened));
  EXPECT_FALSE(opened);
  EXPECT_EQ(closed.requests.size(), 2u);
  EXPECT_EQ(closed.open_ns, 10);
  EXPECT_EQ(closed.close_ns, 20);
  EXPECT_EQ(f.batches_formed(), 1u);
  EXPECT_EQ(f.open_size(), 0u);
}

TEST(BatchFormerTest, WindowExpiryClosesOpenBatch) {
  BatchFormer f(8, 1000);
  FormedBatch closed;
  bool opened = false;
  f.Add(Req(0, 10), 10, &closed, &opened);
  ASSERT_TRUE(opened);
  uint64_t gen = f.generation();
  f.Add(Req(1, 400), 400, &closed, &opened);
  EXPECT_FALSE(opened);
  EXPECT_TRUE(f.ExpireWindow(gen, 1010, &closed));
  EXPECT_EQ(closed.requests.size(), 2u);
  EXPECT_EQ(closed.close_ns, 1010);
}

TEST(BatchFormerTest, StaleWindowEventIgnored) {
  BatchFormer f(2, 1000);
  FormedBatch closed;
  bool opened = false;
  f.Add(Req(0, 10), 10, &closed, &opened);
  uint64_t gen = f.generation();
  f.Add(Req(1, 20), 20, &closed, &opened);  // closes by size
  // The scheduled window event for the size-closed batch is stale.
  EXPECT_FALSE(f.ExpireWindow(gen, 1010, &closed));
  // A new batch gets a new generation; its own event closes it.
  f.Add(Req(2, 1200), 1200, &closed, &opened);
  ASSERT_TRUE(opened);
  EXPECT_NE(f.generation(), gen);
  EXPECT_TRUE(f.ExpireWindow(f.generation(), 2200, &closed));
  EXPECT_EQ(closed.requests.size(), 1u);
}

// --- SloScheduler ----------------------------------------------------------

FormedBatch Batch(uint64_t id, TimeNs close_ns, TimeNs deadline) {
  FormedBatch b;
  b.id = id;
  b.open_ns = close_ns;
  b.close_ns = close_ns;
  b.requests.push_back(Req(id, close_ns));
  b.requests.back().deadline_ns = deadline;
  return b;
}

TEST(SloSchedulerTest, EarliestDeadlineFirst) {
  SloScheduler s;
  s.Enqueue(Batch(0, 10, 5000));
  s.Enqueue(Batch(1, 20, 2000));  // tighter deadline, later arrival
  s.Enqueue(Batch(2, 30, 9000));
  EXPECT_EQ(s.PopNext(100).id, 1u);
  EXPECT_EQ(s.PopNext(100).id, 0u);
  EXPECT_EQ(s.PopNext(100).id, 2u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.max_backlog(), 3u);
}

TEST(SloSchedulerTest, InfeasibleBatchesServeLast) {
  SloScheduler s;
  // One recorded service of 3000ns makes the rolling p50 estimate 3000.
  s.RecordService(/*service_ns=*/3000);
  EXPECT_EQ(s.EstimateP50(), 3000);
  // At now=1000: batch 0's deadline (2000) < now + p50 (4000) => doomed;
  // batch 1's deadline (6000) is feasible. Plain EDF would pick 0 first.
  s.Enqueue(Batch(0, 10, 2000));
  s.Enqueue(Batch(1, 20, 6000));
  EXPECT_EQ(s.PopNext(1000).id, 1u);
  EXPECT_EQ(s.PopNext(1000).id, 0u);
}

TEST(SloSchedulerTest, OutOfOrderServiceRecordsFold) {
  // Lanes retire out of order, so the estimate must depend only on the
  // recorded samples, not on the order they arrive in.
  const std::vector<TimeNs> samples = {400, 200, 300, 9000, 250, 310};
  SloScheduler in_order;
  SloScheduler reversed;
  for (TimeNs v : samples) in_order.RecordService(v);
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    reversed.RecordService(*it);
  }
  EXPECT_EQ(in_order.EstimateP50(), reversed.EstimateP50());
  EXPECT_EQ(in_order.EstimateP99(), reversed.EstimateP99());
  EXPECT_GT(in_order.EstimateP50(), 0);
  EXPECT_GT(in_order.EstimateP99(), in_order.EstimateP50());
}

// --- TrafficGenerator ------------------------------------------------------

TrafficOptions SmallTraffic() {
  TrafficOptions t;
  t.arrival_rate_rps = 1.0e6;  // 1 request/us keeps virtual times small
  t.zipf_skew = 1.2;
  t.seeds_per_request = 3;
  t.slo_deadline_ns = 50 * kNsPerUs;
  return t;
}

std::vector<graph::NodeId> Candidates(graph::NodeId n) {
  std::vector<graph::NodeId> c(n);
  for (graph::NodeId i = 0; i < n; ++i) c[i] = i;
  return c;
}

TEST(TrafficGeneratorTest, DeterministicAndMonotone) {
  TrafficGenerator a(SmallTraffic(), Candidates(100));
  TrafficGenerator b(SmallTraffic(), Candidates(100));
  TimeNs prev = -1;
  for (int i = 0; i < 500; ++i) {
    Request ra = a.Next();
    Request rb = b.Next();
    EXPECT_EQ(ra.id, rb.id);
    EXPECT_EQ(ra.arrival_ns, rb.arrival_ns);
    EXPECT_EQ(ra.seeds, rb.seeds);
    EXPECT_GT(ra.arrival_ns, prev);  // strictly increasing arrivals
    prev = ra.arrival_ns;
    EXPECT_EQ(ra.deadline_ns, ra.arrival_ns + 50 * kNsPerUs);
    EXPECT_EQ(ra.seeds.size(), 3u);
  }
}

TEST(TrafficGeneratorTest, MeanRateApproximatelyHonored) {
  TrafficGenerator g(SmallTraffic(), Candidates(100));
  Request last;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) last = g.Next();
  // 1e6 rps => mean gap 1000ns => kN arrivals in ~kN * 1000ns.
  double expected = static_cast<double>(kN) * 1000.0;
  EXPECT_NEAR(static_cast<double>(last.arrival_ns), expected,
              0.05 * expected);
}

TEST(TrafficGeneratorTest, ZipfSkewConcentratesSeeds) {
  TrafficOptions t = SmallTraffic();
  t.zipf_skew = 1.5;
  TrafficGenerator g(t, Candidates(64));
  std::vector<int> counts(64, 0);
  for (int i = 0; i < 3000; ++i) {
    for (graph::NodeId s : g.Next().seeds) counts[s]++;
  }
  // Rank 0 is the most popular candidate by a wide margin.
  EXPECT_GT(counts[0], counts[63] * 5);
  EXPECT_EQ(*std::max_element(counts.begin(), counts.end()), counts[0]);
}

TEST(TrafficGeneratorTest, DiurnalModulationKeepsDeterminism) {
  TrafficOptions t = SmallTraffic();
  t.diurnal_amplitude = 0.5;
  t.diurnal_period_ns = 100 * kNsPerUs;
  TrafficGenerator a(t, Candidates(32));
  TrafficGenerator b(t, Candidates(32));
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(a.Next().arrival_ns, b.Next().arrival_ns);
  }
}

// --- InferenceServer end-to-end -------------------------------------------

struct ServerRig {
  explicit ServerRig(ServingOptions opts, TrafficOptions traffic_opts,
                     uint64_t requests = 400) {
    Rng rng(7);
    auto g = graph::GenerateUniform(2048, 16384, rng);
    GIDS_CHECK(g.ok());
    graph = std::make_unique<graph::CscGraph>(std::move(*g));
    sampler = std::make_unique<sampling::NeighborSampler>(
        graph.get(), sampling::NeighborSamplerOptions{{4, 4}}, /*seed=*/11);
    server = std::make_unique<InferenceServer>(graph.get(), sampler.get(),
                                               std::move(opts));
    TrafficGenerator traffic(traffic_opts, Candidates(2048));
    result = server->Run(traffic, requests);
  }

  std::unique_ptr<graph::CscGraph> graph;
  std::unique_ptr<sampling::NeighborSampler> sampler;
  std::unique_ptr<InferenceServer> server;
  ServingRunResult result;
};

ServingOptions SmallServer() {
  ServingOptions o;
  o.max_queue_depth = 64;
  o.max_batch_requests = 8;
  o.batch_window_ns = 20 * kNsPerUs;
  o.executor_lanes = 2;
  o.gpu_cache_lines = 64;
  return o;
}

TEST(InferenceServerTest, AccountingBooksBalanceExactly) {
  ServerRig rig(SmallServer(), SmallTraffic());
  const ServingRunResult& r = rig.result;
  EXPECT_EQ(r.offered, 400u);
  EXPECT_EQ(r.admitted + r.shed, r.offered);
  EXPECT_EQ(r.completed, r.admitted);
  EXPECT_EQ(r.on_time + r.deadline_misses, r.completed);
  EXPECT_EQ(r.outcomes.size(), r.admitted);
  EXPECT_EQ(r.latency_ns.count(), r.admitted);
  EXPECT_GT(r.batches, 0u);
  EXPECT_EQ(r.batch_occupancy.count(), r.batches);
  EXPECT_GT(r.last_completion_ns, 0);
  // Every admitted request appears exactly once in the outcomes.
  std::vector<uint64_t> ids;
  for (const auto& o : r.outcomes) ids.push_back(o.id);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::unique(ids.begin(), ids.end()), ids.end());
}

TEST(InferenceServerTest, OverloadShedsDeterministically) {
  ServingOptions o = SmallServer();
  o.max_queue_depth = 4;  // tiny system bound: heavy shedding
  ServerRig a(o, SmallTraffic());
  ServerRig b(o, SmallTraffic());
  EXPECT_GT(a.result.shed, 0u);
  EXPECT_EQ(a.result.admitted + a.result.shed, a.result.offered);
  EXPECT_EQ(a.result.completed, a.result.admitted);
  // Same trace, same sheds: the shed set is deterministic.
  EXPECT_EQ(a.result.shed, b.result.shed);
  ASSERT_EQ(a.result.outcomes.size(), b.result.outcomes.size());
  for (size_t i = 0; i < a.result.outcomes.size(); ++i) {
    EXPECT_EQ(a.result.outcomes[i].id, b.result.outcomes[i].id);
    EXPECT_EQ(a.result.outcomes[i].completion_ns,
              b.result.outcomes[i].completion_ns);
  }
  EXPECT_LE(a.result.max_queue_depth, 4u);
}

TEST(InferenceServerTest, LanesRetireOutOfOrderAndTimelineFoldsThem) {
  ServingOptions o = SmallServer();
  o.executor_lanes = 4;
  o.max_batch_requests = 16;
  o.batch_window_ns = 5 * kNsPerUs;
  obs::TimeSeries timeline(/*window_ns=*/50 * kNsPerUs);
  o.latency_timeline = &timeline;
  TrafficOptions t = SmallTraffic();
  t.zipf_skew = 1.3;
  ServerRig rig(o, t, /*requests=*/600);
  const ServingRunResult& r = rig.result;
  // One timeline sample per admitted request, despite lanes retiring out
  // of order (the TimeSeries out-of-order fold).
  EXPECT_EQ(timeline.total_iterations(), r.admitted);
  const auto& w = timeline.windows();
  ASSERT_FALSE(w.empty());
  uint64_t counted = 0;
  for (size_t i = 0; i < w.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(w[i - 1].index, w[i].index);  // sorted, sparse
    }
    counted += w[i].iterations;
  }
  EXPECT_EQ(counted, r.admitted);
  // Out-of-order retirement actually happened: in completion order, batch
  // ids are not monotone (a later-dispatched batch finished earlier).
  bool out_of_order = false;
  for (size_t i = 1; i < r.outcomes.size(); ++i) {
    if (r.outcomes[i].batch_id < r.outcomes[i - 1].batch_id) {
      out_of_order = true;
      break;
    }
  }
  EXPECT_TRUE(out_of_order)
      << "scenario never exercised concurrent out-of-order completion";
}

TEST(InferenceServerTest, PerRequestLedgersBalanceAgainstE2e) {
  ServingOptions o = SmallServer();
  obs::TimeSeries timeline(/*window_ns=*/100 * kNsPerUs);
  o.latency_timeline = &timeline;
  ServerRig rig(o, SmallTraffic());
  // Each recorded sample's ledger satisfies Sum() == e2e_ns exactly, so
  // the window ledger sums must equal the total e2e mass.
  TimeNs total_e2e = 0;
  for (const auto& out : rig.result.outcomes) {
    total_e2e += out.completion_ns - out.arrival_ns;
  }
  TimeNs ledger_sum = 0;
  for (const auto& w : timeline.windows()) ledger_sum += w.ledger.Sum();
  EXPECT_EQ(ledger_sum, total_e2e);
}

TEST(InferenceServerTest, DeadLettersBillOnceAsDegradedFill) {
  // Every attempt fails, so every storage read dead-letters. Its whole
  // penalty is degraded service: billed once, to degraded_fill, and never
  // again to retry_backoff.
  ServingOptions o = SmallServer();
  o.fault_rate = 1.0;
  obs::TimeSeries timeline(/*window_ns=*/100 * kNsPerUs);
  o.latency_timeline = &timeline;
  ServerRig rig(o, SmallTraffic());
  // Five failed attempts at the device latency plus the default
  // 20/40/80/160 us backoffs between them.
  const TimeNs per_read = 5 * sim::SsdSpec::IntelOptane().read_latency_ns +
                          (20 + 40 + 80 + 160) * kNsPerUs;
  ASSERT_EQ(per_read, 355 * kNsPerUs);
  ASSERT_GT(rig.result.dead_letters, 0u);
  TimeNs retry_backoff = 0;
  TimeNs degraded_fill = 0;
  for (const auto& w : timeline.windows()) {
    retry_backoff += w.ledger.retry_backoff_ns;
    degraded_fill += w.ledger.degraded_fill_ns;
  }
  EXPECT_EQ(retry_backoff, 0);
  EXPECT_EQ(degraded_fill,
            static_cast<TimeNs>(rig.result.dead_letters) * per_read);
}

TEST(InferenceServerTest, MetricsMatchResultBooks) {
  obs::MetricRegistry reg;
  ServingOptions o = SmallServer();
  o.max_queue_depth = 8;  // force some shedding
  o.metrics = &reg;
  o.display_name = "unit";
  ServerRig rig(o, SmallTraffic());
  const ServingRunResult& r = rig.result;
  obs::Labels labels{{"server", "unit"}};
  EXPECT_EQ(reg.GetCounter("gids_serving_requests_total", labels)->value(),
            r.offered);
  EXPECT_EQ(reg.GetCounter("gids_serving_shed_total", labels)->value(),
            r.shed);
  EXPECT_EQ(reg.GetCounter("gids_serving_completed_total", labels)->value(),
            r.completed);
  EXPECT_EQ(
      reg.GetCounter("gids_serving_deadline_misses_total", labels)->value(),
      r.deadline_misses);
  EXPECT_EQ(reg.GetCounter("gids_serving_batches_total", labels)->value(),
            r.batches);
  EXPECT_EQ(reg.GetGauge("gids_serving_queue_depth", labels)->value(), 0.0);
}

TEST(InferenceServerTest, SchedulerEstimatesConvergeFromServiceSamples) {
  ServerRig rig(SmallServer(), SmallTraffic());
  EXPECT_GT(rig.result.p50_service_estimate_ns, 0);
  EXPECT_GE(rig.result.p99_service_estimate_ns,
            rig.result.p50_service_estimate_ns);
}

}  // namespace
}  // namespace gids::serving
