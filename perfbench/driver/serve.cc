// serve-zipf: open-loop Poisson traffic of Zipf-skewed requests through
// serving::InferenceServer. Every measured episode is one Run() of a
// fixed request count on a fresh server (one run per server instance),
// so each episode does identical work and must produce identical
// outcomes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "driver/workloads.h"
#include "graph/generator.h"
#include "sampling/neighbor_sampler.h"
#include "serving/inference_server.h"
#include "serving/traffic_gen.h"

namespace perfbench {
namespace {

using gids::TimeNs;
using gids::serving::InferenceServer;
using gids::serving::ServingOptions;
using gids::serving::ServingRunResult;
using gids::serving::TrafficGenerator;
using gids::serving::TrafficOptions;

struct ServeSpec {
  gids::graph::NodeId nodes = 0;
  gids::graph::EdgeIdx edges = 0;
  std::vector<int> fanouts = {10, 5};
  double rate_rps = 0;          // the fixed offered rate of the episodes
  uint64_t requests = 0;        // per episode
  uint64_t warmup_requests = 0;
  uint64_t probe_requests = 0;  // per capacity probe
  ServingOptions server;
  TrafficOptions traffic;
};

ServeSpec MakeSpec(const RunConfig& cfg) {
  ServeSpec s;
  s.nodes = cfg.tiny ? (1u << 12) : (1u << 17);
  s.edges = cfg.tiny ? (1u << 15) : (1u << 20);
  s.rate_rps = 8000;
  s.requests = cfg.tiny ? 600 : 10000;
  s.warmup_requests = cfg.tiny ? 100 : 1000;
  s.probe_requests = cfg.tiny ? 400 : 4000;
  // ServingOptions / TrafficOptions defaults are the workload: at most 16
  // requests per batch, a 200 µs window, 2 lanes, cross-request
  // coalescing, Zipf 1.1 over seeds, 4 seeds per request, 5 ms SLO.
  s.server.host_threads = cfg.host_threads != 0 ? cfg.host_threads : 1;
  s.server.seed = cfg.seed ^ 0x5e44e;
  s.traffic.seed = cfg.seed ^ 0x7a4f1c;
  return s;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// The request ids offered in the order they arrived, with latencies.
std::vector<double> LatenciesMs(const ServingRunResult& r) {
  std::vector<double> ms;
  ms.reserve(r.outcomes.size());
  for (const auto& o : r.outcomes) {
    ms.push_back(static_cast<double>(o.completion_ns - o.arrival_ns) / 1e6);
  }
  return ms;
}

/// The graph, sampler and candidate seeds every server of a run shares.
struct ServeInputs {
  std::unique_ptr<gids::graph::CscGraph> graph;
  std::unique_ptr<gids::sampling::NeighborSampler> sampler;
  std::vector<gids::graph::NodeId> candidates;
};

ServeInputs BuildInputs(const ServeSpec& spec, uint64_t seed, SpanLog* log) {
  ServeInputs in;
  {
    ScopedSpan span(log, "GenerateRmat", 0, false);
    gids::Rng rng(seed);
    auto g = gids::graph::GenerateRmat(spec.nodes, spec.edges,
                                       gids::graph::RmatParams{}, rng);
    if (!g.ok()) {
      std::fprintf(stderr, "GenerateRmat: %s\n", g.status().ToString().c_str());
      std::exit(2);
    }
    in.graph = std::make_unique<gids::graph::CscGraph>(std::move(*g));
  }
  in.sampler = std::make_unique<gids::sampling::NeighborSampler>(
      in.graph.get(),
      gids::sampling::NeighborSamplerOptions{.fanouts = spec.fanouts},
      seed ^ 0x5a3e);
  in.candidates.resize(spec.nodes);
  for (gids::graph::NodeId i = 0; i < spec.nodes; ++i) in.candidates[i] = i;
  return in;
}

/// Checks the serving books of one Run(); returns false on a violation.
bool CheckBooks(const ServingRunResult& r, RunResult* out) {
  if (r.offered == r.admitted + r.shed && r.completed == r.admitted &&
      r.on_time + r.deadline_misses == r.completed &&
      r.outcomes.size() == r.admitted) {
    return true;
  }
  out->Violation("serving books unbalanced: offered " +
                 std::to_string(r.offered) + ", admitted " +
                 std::to_string(r.admitted) + ", shed " +
                 std::to_string(r.shed) + ", completed " +
                 std::to_string(r.completed) + ", on_time " +
                 std::to_string(r.on_time) + ", misses " +
                 std::to_string(r.deadline_misses));
  return false;
}

uint64_t FingerprintOf(const ServingRunResult& r) {
  Fingerprint fp;
  for (const auto& o : r.outcomes) fp.MixOutcome(o);
  fp.Mix(r.offered);
  fp.Mix(r.shed);
  fp.Mix(r.batches);
  fp.Mix(r.max_backlog);
  fp.Mix(r.gather.storage_reads);
  fp.Mix(r.gather.gpu_cache_hits);
  fp.Mix(r.gather.coalesced_requests);
  fp.Mix(r.storage_array_reads);
  return fp.value();
}

/// One Run() on a fresh server. `log` adds a Run span (and the server
/// samples through `sampler`, a TracedSampler in traced runs).
ServingRunResult RunEpisode(const ServeSpec& spec, const ServeInputs& in,
                            gids::sampling::Sampler* sampler, double rate,
                            uint64_t requests, HostMeter* meter,
                            SpanLog* log, uint64_t op) {
  InferenceServer server(in.graph.get(), sampler, spec.server);
  TrafficOptions t = spec.traffic;
  t.arrival_rate_rps = rate;
  TrafficGenerator traffic(t, in.candidates);
  if (meter != nullptr) meter->Open();
  ServingRunResult r = [&] {
    ScopedSpan span(log, "Run", op, true);
    return server.Run(traffic, requests);
  }();
  if (meter != nullptr) {
    meter->Count(r.admitted);
    meter->Close();
  }
  return r;
}

/// True when `rate` is sustainable: p99 within the SLO, nothing shed, and
/// the last quarter of requests waits no longer on average than 1.5x the
/// second quarter (the backlog is not growing).
bool Sustainable(const ServingRunResult& r, TimeNs slo_ns) {
  if (r.shed != 0 || r.outcomes.empty()) return false;
  std::vector<double> lat = LatenciesMs(r);
  std::vector<double> sorted = lat;
  if (Percentile(sorted, 0.99) > static_cast<double>(slo_ns) / 1e6) {
    return false;
  }
  std::vector<std::pair<uint64_t, double>> by_id;
  by_id.reserve(r.outcomes.size());
  for (size_t i = 0; i < r.outcomes.size(); ++i) {
    by_id.emplace_back(r.outcomes[i].id, lat[i]);
  }
  std::sort(by_id.begin(), by_id.end());
  const size_t q = by_id.size() / 4;
  double second = 0, last = 0;
  for (size_t i = q; i < 2 * q; ++i) second += by_id[i].second;
  for (size_t i = by_id.size() - q; i < by_id.size(); ++i) {
    last += by_id[i].second;
  }
  return last <= 1.5 * second;
}

/// Highest sustainable rate on the grid rate_rps * 2^(k/64): doubling
/// steps up from the fixed rate until a probe fails, then bisection.
/// Deterministic in the seed.
double CapacityRps(const ServeSpec& spec, const ServeInputs& in, int* probes) {
  auto rate = [&](int k) { return spec.rate_rps * std::exp2(k / 64.0); };
  auto ok = [&](int k) {
    ++*probes;
    ServingRunResult r = RunEpisode(spec, in, in.sampler.get(), rate(k),
                                    spec.probe_requests, nullptr, nullptr, 0);
    return Sustainable(r, spec.traffic.slo_deadline_ns);
  };
  int lo = 0, hi = 0;
  if (ok(0)) {
    int step = 16;
    hi = step;
    while (hi < 512 && ok(hi)) {
      lo = hi;
      step *= 2;
      hi = lo + step;
    }
  } else {
    hi = 0;
    lo = -64;
    while (lo > -512 && !ok(lo)) {
      hi = lo;
      lo -= 64;
    }
  }
  while (hi - lo > 1) {
    const int mid = lo + (hi - lo) / 2;
    (ok(mid) ? lo : hi) = mid;
  }
  return rate(lo);
}

}  // namespace

RunResult RunServeZipf(const RunConfig& cfg) {
  RunResult out;
  const ServeSpec spec = MakeSpec(cfg);
  RefLoop ref(RefLoop::Kind::kSmallBlocks);
  std::unique_ptr<SpanLog> log;
  if (cfg.trace) log = std::make_unique<SpanLog>();

  // Setup: graph build, server construction, warm-up Run().
  std::vector<double> setup_s;
  ServeInputs in;
  double init_s = 0, warmup_s = 0;
  while (MoreSetups(cfg, setup_s)) {
    in = ServeInputs();
    const Clock::time_point t0 = Clock::now();
    in = BuildInputs(spec, cfg.seed, log.get());
    Clock::time_point t1 = Clock::now();
    std::unique_ptr<InferenceServer> server;
    {
      ScopedSpan span(log.get(), "InferenceServer", 0, false);
      server = std::make_unique<InferenceServer>(in.graph.get(),
                                                 in.sampler.get(), spec.server);
    }
    init_s = SecondsSince(t1);
    t1 = Clock::now();
    {
      ScopedSpan span(log.get(), "Warmup", 0, true);
      TrafficOptions t = spec.traffic;
      t.arrival_rate_rps = spec.rate_rps;
      TrafficGenerator traffic(t, in.candidates);
      CheckBooks(server->Run(traffic, spec.warmup_requests), &out);
    }
    warmup_s = SecondsSince(t1);
    setup_s.push_back(SecondsSince(t0));
  }

  const double setup_peak_mb = PeakRssMb();

  // Measured phase: whole-Run() segments with a reference timing between
  // them. Traced runs alternate untraced and traced episodes.
  std::unique_ptr<TracedSampler> traced;
  if (log) {
    traced = std::make_unique<TracedSampler>(in.sampler.get(), log.get());
  }
  HostMeter meter(&ref, kSegmentSeconds);
  HostMeter untraced_meter(&ref, kSegmentSeconds);
  ServingRunResult first;
  uint64_t first_fp = 0;
  uint64_t episodes = 0;
  double rss_growth_mb = 0;
  uint64_t traced_episodes = 0;
  const Clock::time_point start = Clock::now();
  do {
    const bool traced_episode = traced && episodes % 2 == 1;
    const double rss0 = CurrentRssMb();
    gids::sampling::Sampler* sampler = in.sampler.get();
    if (traced_episode) sampler = traced.get();
    ServingRunResult r = RunEpisode(
        spec, in, sampler, spec.rate_rps, spec.requests,
        traced && !traced_episode ? &untraced_meter : &meter,
        traced_episode ? log.get() : nullptr, episodes);
    if (traced_episode) {
      rss_growth_mb += CurrentRssMb() - rss0;
      ++traced_episodes;
    }
    if (!CheckBooks(r, &out)) break;
    out.attempted += r.offered;
    out.failed += r.shed + r.deadline_misses;
    const uint64_t fp = FingerprintOf(r);
    if (episodes == 0) {
      first_fp = fp;
      first = std::move(r);
    } else if (fp != first_fp) {
      out.Violation("serve-zipf episode " + std::to_string(episodes) +
                    " diverged from the first");
      break;
    }
    ++episodes;
  } while (SecondsSince(start) < cfg.seconds ||
           (traced && traced_episodes == 0));
  out.fingerprint = first_fp;

  char line[200];
  std::snprintf(line, sizeof(line), "episodes: %llu Run() calls measured",
                static_cast<unsigned long long>(episodes));
  out.Note(line);
  for (std::string& note : meter.Notes()) out.Note(std::move(note));
  std::snprintf(line, sizeof(line),
                "setup: %d runs, median %.3f s; peak RSS %.1f MB after setup",
                static_cast<int>(setup_s.size()), Median(setup_s),
                setup_peak_mb);
  out.Note(line);

  std::vector<double> lat = LatenciesMs(first);
  if (!cfg.trace) {
    int probes = 0;
    const double capacity = CapacityRps(spec, in, &probes);
    double mean = 0;
    for (double v : lat) mean += v;
    mean = Ratio(mean, static_cast<double>(lat.size()));
    std::vector<double> sorted = lat;
    const double p50 = Percentile(sorted, 0.50);
    const double p99 = Percentile(sorted, 0.99);
    out.E2e("setup_s", Median(setup_s), "s");
    out.E2e("ops_per_s", meter.ops_per_s(), "1/s");
    out.E2e("peak_rss_mb", PeakRssMb(), "MB");
    out.E2e("sim_ms_per_iter", mean, "virtual_ms");
    out.E2e("sim_iter_ms_p99", p99, "virtual_ms");
    out.E2e("sim_latency_ms_p50", p50, "virtual_ms");
    out.E2e("sim_latency_ms_p99", p99, "virtual_ms");
    out.E2e("sim_goodput_rps",
            Ratio(static_cast<double>(first.on_time),
                  static_cast<double>(first.last_completion_ns) / 1e9),
            "1/virtual_s");
    out.E2e("sim_capacity_rps", capacity, "1/virtual_s");
    std::snprintf(line, sizeof(line),
                  "sim: %zu latency samples at %.0f rps (p99 has %zu above "
                  "it); capacity from %d probes of %llu requests",
                  lat.size(), spec.rate_rps,
                  lat.size() - static_cast<size_t>(0.99 * lat.size() + 0.5),
                  probes, static_cast<unsigned long long>(spec.probe_requests));
    out.Note(line);
    return out;
  }

  LayerSheet sheet;
  const std::vector<Span> spans = log->Collect();
  sheet.graph_build_s = SpanSeconds(spans, "GenerateRmat");
  sheet.core_init_s = init_s;
  sheet.core_warmup_s = warmup_s;
  const double k = static_cast<double>(first.admitted);
  const auto& g = first.gather;
  sheet.page_requests_per_op =
      Ratio(static_cast<double>(g.total_page_requests()), k);
  sheet.serviced_per_op =
      Ratio(static_cast<double>(g.serviced_page_requests()), k);
  sheet.ssd_reads_per_op = Ratio(static_cast<double>(g.storage_reads), k);
  sheet.cpu_buffer_share =
      Ratio(static_cast<double>(g.cpu_buffer_hits),
            static_cast<double>(g.serviced_page_requests()));
  sheet.cache_hit_ratio =
      Ratio(static_cast<double>(g.gpu_cache_hits),
            static_cast<double>(g.gpu_cache_hits + g.storage_reads));
  sheet.dedup_ratio = first.dedup_ratio();
  sheet.dead_letters = static_cast<double>(first.dead_letters);
  sheet.serving_batches = static_cast<double>(first.batches);
  sheet.serving_occupancy = Ratio(k, static_cast<double>(first.batches));
  sheet.serving_max_backlog = static_cast<double>(first.max_backlog);
  sheet.serving_shed = static_cast<double>(first.shed);
  sheet.serving_deadline_misses = static_cast<double>(first.deadline_misses);
  sheet.serving_dedup_ratio = first.dedup_ratio();
  sheet.raw_ops_per_s = untraced_meter.raw_ops_per_s();
  FillHostRows({&meter, &untraced_meter}, &sheet);
  sheet.rss_growth_mb_per_kop =
      Ratio(rss_growth_mb / static_cast<double>(traced_episodes), k / 1e3);
  sheet.trace_overhead =
      1.0 - Ratio(meter.ops_per_s(), untraced_meter.ops_per_s());
  const SpanTotals t = FinishTrace(*log, "Run", meter, cfg, &sheet, &out);
  sheet.serving_self_ms_per_op =
      Ratio(t.op_ms - t.sampler_ms, static_cast<double>(meter.ops()));
  sheet.EmitTo(&out);
  return out;
}

}  // namespace perfbench
