// Training workloads: closed loops over core::GidsLoader (Next -> record
// -> Recycle). train-paper and train-parallel keep one loader for the
// whole measured phase; mutate-failover replays fixed-length episodes on
// fresh loaders, so its memory growth per episode, not the host's speed,
// sets its peak RSS.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/workspace_pool.h"
#include "core/gids_loader.h"
#include "driver/workloads.h"
#include "graph/dataset.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/seed_iterator.h"
#include "sim/system_model.h"

namespace perfbench {
namespace {

using gids::core::GidsLoader;
using gids::core::GidsOptions;
using gids::obs::IterationLedger;

uint64_t Derive(uint64_t seed, uint64_t salt) {
  uint64_t z = seed ^ salt;
  z += 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

struct TrainSpec {
  const char* name = "";
  gids::graph::DatasetSpec dataset;
  double scale = 0;
  uint32_t batch = 16;
  std::vector<int> fanouts = {10, 5, 5};
  int n_ssd = 1;
  GidsOptions options;
  uint64_t warmup = 0;     // warm-up iterations per loader
  uint64_t sim_iters = 0;  // measured iterations the sim_* values cover
  /// Rebuild the loader after every sim_iters measured iterations; every
  /// episode must reproduce the first one's fingerprint.
  bool episodic = false;
  /// Zero WorkspacePool allocations in the measured phase (DESIGN.md §11).
  bool check_ws_allocs = false;
};

/// Loader counters read from public accessors; differences of two
/// snapshots cover a window of iterations.
struct Counters {
  uint64_t evictions = 0, probe_skips = 0, bypasses = 0;
  uint64_t reads = 0, retries = 0, timeouts = 0, dead_letters = 0;
  uint64_t crc_mismatches = 0, repairs = 0, failovers = 0;
  uint64_t journal_records = 0, journal_bytes = 0, logical_bytes = 0;
  uint64_t applied_page_bytes = 0, applied = 0;
  uint64_t pool_tasks = 0, pool_chunks = 0;

  static Counters Of(const GidsLoader& l) {
    Counters c;
    const gids::storage::CacheStats& cs = l.cache().stats();
    c.evictions = cs.evictions;
    c.probe_skips = cs.pinned_probe_skips;
    c.bypasses = cs.bypasses;
    const gids::storage::StorageArray& a = l.storage_array();
    c.reads = a.total_reads();
    c.retries = a.retries_total();
    c.timeouts = a.timeouts_total();
    c.dead_letters = a.dead_letters_total();
    c.crc_mismatches = a.checksum_mismatches_total();
    c.repairs = a.integrity_repairs_total();
    c.failovers = a.replica_failovers_total();
    if (const auto* j = a.journal()) {
      const auto& jc = j->counters();
      c.journal_records = j->last_lsn();
      c.journal_bytes = jc.journal_bytes.load();
      c.logical_bytes = jc.logical_bytes.load();
      c.applied_page_bytes = jc.applied_page_bytes.load();
      c.applied = jc.applied.load();
    }
    if (const gids::ThreadPool* p = l.host_pool()) {
      c.pool_tasks = p->tasks_executed();
      c.pool_chunks = p->chunks_executed();
    }
    return c;
  }

  Counters Minus(const Counters& o) const {
    Counters d;
    d.evictions = evictions - o.evictions;
    d.probe_skips = probe_skips - o.probe_skips;
    d.bypasses = bypasses - o.bypasses;
    d.reads = reads - o.reads;
    d.retries = retries - o.retries;
    d.timeouts = timeouts - o.timeouts;
    d.dead_letters = dead_letters - o.dead_letters;
    d.crc_mismatches = crc_mismatches - o.crc_mismatches;
    d.repairs = repairs - o.repairs;
    d.failovers = failovers - o.failovers;
    d.journal_records = journal_records - o.journal_records;
    d.journal_bytes = journal_bytes - o.journal_bytes;
    d.logical_bytes = logical_bytes - o.logical_bytes;
    d.applied_page_bytes = applied_page_bytes - o.applied_page_bytes;
    d.applied = applied - o.applied;
    d.pool_tasks = pool_tasks - o.pool_tasks;
    d.pool_chunks = pool_chunks - o.pool_chunks;
    return d;
  }
};

/// The dataset and system model every loader of one setup shares.
struct Inputs {
  std::unique_ptr<gids::graph::Dataset> dataset;
  std::unique_ptr<gids::sim::SystemModel> system;
};

Inputs BuildInputs(const TrainSpec& spec, uint64_t seed, SpanLog* log) {
  Inputs in;
  {
    ScopedSpan span(log, "BuildDataset", 0, false);
    auto built = gids::graph::BuildDataset(spec.dataset, spec.scale, seed);
    if (!built.ok()) {
      std::fprintf(stderr, "BuildDataset: %s\n",
                   built.status().ToString().c_str());
      std::exit(2);
    }
    in.dataset =
        std::make_unique<gids::graph::Dataset>(std::move(built).value());
  }
  gids::sim::SystemConfig sys = gids::sim::SystemConfig::Paper(
      gids::sim::SsdSpec::IntelOptane(), spec.n_ssd);
  sys.memory_scale = spec.scale;
  in.system = std::make_unique<gids::sim::SystemModel>(sys);
  return in;
}

/// One loader's closed loop, rebuilt per episode when the spec asks.
/// Untraced streams sample through the bare NeighborSampler; traced ones
/// through a TracedSampler and record a span per Next().
class Stream {
 public:
  Stream(const TrainSpec& spec, const Inputs& in, uint64_t seed,
         SpanLog* log, RunResult* out)
      : spec_(spec), in_(in), seed_(seed), log_(log), out_(out) {
    Build();
  }

  bool ok() const { return ok_; }
  bool window_full() const { return window_iters_ >= spec_.sim_iters; }
  bool episode_done() const {
    return spec_.episodic && in_episode_ >= spec_.sim_iters;
  }

  /// One measured iteration: Next -> record -> Recycle.
  void Step() {
    const bool first_window = episodes_ == 0 && !window_full();
    const bool fingerprinting = first_window || spec_.episodic;
    Clock::time_point t0;
    if (log_ != nullptr) t0 = Clock::now();
    gids::StatusOr<gids::loaders::LoaderBatch> lb = [&] {
      ScopedSpan span(log_, "Next", measured, true);
      return loader_->Next();
    }();
    if (log_ != nullptr) {
      const double ms =
          std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
      if (group_left_ == 0) {
        if (lb.ok()) group_left_ = lb->stats.merged_group - 1;
        prep_ms.push_back(ms);
      } else {
        --group_left_;
        handoff_ms.push_back(ms);
      }
    }
    if (!lb.ok()) {
      Fail("Next() failed: " + lb.status().ToString());
      return;
    }
    const gids::loaders::IterationStats& st = lb->stats;
    CheckLedger(st);
    attempted += st.gather.nodes;
    const uint64_t bad = st.gather.degraded_nodes + st.gather.corrupt_nodes;
    failed += bad;
    if (fingerprinting) episode_fp_.MixBatch(*lb);
    if (first_window) {
      e2e_ms.push_back(static_cast<double>(st.e2e_ns) / 1e6);
      ledger.Add(st.ledger);
      gather.Add(st.gather);
      if (bad == 0) ++good_iters;
      if (++window_iters_ == spec_.sim_iters) {
        window = Counters::Of(*loader_).Minus(base_);
      }
    }
    ++measured;
    ++in_episode_;
    loader_->Recycle(std::move(*lb));
  }

  /// Ends an episode: checks it against the first one and starts the next
  /// on a fresh loader.
  void NextEpisode() {
    if (episodes_ == 0) {
      first_fp_ = episode_fp_.value();
    } else if (episode_fp_.value() != first_fp_) {
      Fail("episode " + std::to_string(episodes_) +
           " diverged from the first (fingerprint " +
           Hex(episode_fp_.value()) + " vs " + Hex(first_fp_) + ")");
    }
    rss_growth_mb_ += CurrentRssMb() - rss_at_start_;
    ++episodes_;
    loader_.reset();
    Build();
  }

  /// Marks the start of the measured phase of the current loader.
  void BeginMeasure() {
    base_ = Counters::Of(*loader_);
    rss_at_start_ = CurrentRssMb();
  }

  double rss_growth_mb() const {
    return episodes_ > 0 ? rss_growth_mb_ / static_cast<double>(episodes_)
                         : CurrentRssMb() - rss_at_start_;
  }
  uint64_t fingerprint() const {
    return episodes_ > 0 ? first_fp_ : episode_fp_.value();
  }

  // Sim-window results (the first sim_iters measured iterations).
  std::vector<double> e2e_ms;
  IterationLedger ledger;
  gids::storage::FeatureGatherCounts gather;
  Counters window;
  uint64_t good_iters = 0;
  // Whole measured phase.
  uint64_t measured = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> prep_ms;
  std::vector<double> handoff_ms;
  double warmup_s = 0;
  double init_s = 0;

 private:
  void Build() {
    sampler_ = std::make_unique<gids::sampling::NeighborSampler>(
        &in_.dataset->graph,
        gids::sampling::NeighborSamplerOptions{.fanouts = spec_.fanouts},
        Derive(seed_, 0x5a3e));
    gids::sampling::Sampler* sampler = sampler_.get();
    if (log_ != nullptr) {
      traced_ = std::make_unique<TracedSampler>(sampler_.get(), log_);
      sampler = traced_.get();
    }
    seeds_ = std::make_unique<gids::sampling::SeedIterator>(
        in_.dataset->train_ids, spec_.batch, Derive(seed_, 0x5eed));
    GidsOptions opts = spec_.options;
    opts.seed = Derive(seed_, 0x61d5);
    opts.fault_seed = Derive(seed_, 0xfa017);
    opts.crc_seed = Derive(seed_, 0xc3c32c);
    opts.mutation_seed = Derive(seed_, 0x6d7574);
    opts.crash_seed = Derive(seed_, 0xc4a54);
    // Only the first loader of a traced run records its setup spans.
    SpanLog* setup_log = episodes_ == 0 ? log_ : nullptr;
    Clock::time_point t0 = Clock::now();
    {
      ScopedSpan span(setup_log, "GidsLoader", 0, false);
      loader_ = std::make_unique<GidsLoader>(in_.dataset.get(), sampler,
                                             seeds_.get(), in_.system.get(),
                                             opts);
    }
    init_s = SecondsSince(t0);
    t0 = Clock::now();
    episode_fp_ = Fingerprint();
    group_left_ = 0;
    in_episode_ = 0;
    {
      ScopedSpan span(setup_log, "Warmup", 0, true);
      for (uint64_t i = 0; i < spec_.warmup && ok_; ++i) {
        auto lb = loader_->Next();
        if (!lb.ok()) {
          Fail("warm-up Next() failed: " + lb.status().ToString());
          break;
        }
        CheckLedger(lb->stats);
        episode_fp_.MixBatch(*lb);
        group_left_ = group_left_ == 0 ? lb->stats.merged_group - 1
                                       : group_left_ - 1;
        loader_->Recycle(std::move(*lb));
      }
    }
    warmup_s = SecondsSince(t0);
    if (episodes_ > 0) BeginMeasure();
  }

  void CheckLedger(const gids::loaders::IterationStats& st) {
    if (st.ledger.Sum() != st.e2e_ns) {
      Fail("ledger Sum() " + std::to_string(st.ledger.Sum()) +
           " != e2e_ns " + std::to_string(st.e2e_ns));
    }
  }

  void Fail(std::string what) {
    if (ok_) out_->Violation(std::string(spec_.name) + ": " + what);
    ok_ = false;
  }

  const TrainSpec& spec_;
  const Inputs& in_;
  uint64_t seed_;
  SpanLog* log_;
  RunResult* out_;
  bool ok_ = true;

  std::unique_ptr<gids::sampling::NeighborSampler> sampler_;
  std::unique_ptr<TracedSampler> traced_;
  std::unique_ptr<gids::sampling::SeedIterator> seeds_;
  std::unique_ptr<GidsLoader> loader_;

  Counters base_;
  Fingerprint episode_fp_;
  uint64_t first_fp_ = 0;
  uint64_t episodes_ = 0;
  uint64_t in_episode_ = 0;
  uint64_t window_iters_ = 0;
  uint32_t group_left_ = 0;
  double rss_at_start_ = 0;
  double rss_growth_mb_ = 0;
};

/// Runs one measured segment of `s` on `meter`: kSegmentSeconds of
/// iterations, cut short at the end of an episode.
void RunSegment(Stream& s, HostMeter& meter) {
  meter.Open();
  do {
    s.Step();
    meter.Count(1);
  } while (s.ok() && !s.episode_done() && !meter.SegmentDue());
  meter.Close();
}

/// One turn of `s`: a segment, or every segment to the end of the episode
/// when `whole_episode` is set. Starts the next episode when one ends.
void RunTurn(Stream& s, HostMeter& meter, bool whole_episode) {
  do {
    RunSegment(s, meter);
  } while (s.ok() && whole_episode && !s.episode_done());
  if (s.ok() && s.episode_done()) s.NextEpisode();
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Fills the end-to-end sim_* rows from the stream's sim window.
void EmitSim(const Stream& s, RunResult* out) {
  std::vector<double> e2e = s.e2e_ms;
  double sum_ms = 0;
  for (double v : e2e) sum_ms += v;
  const double n = static_cast<double>(e2e.size());
  const double mean = Ratio(sum_ms, n);
  out->E2e("sim_ms_per_iter", mean, "virtual_ms");
  out->E2e("sim_iter_ms_p99", Percentile(e2e, 0.99), "virtual_ms");
  out->E2e("sim_latency_ms_p50", Percentile(e2e, 0.50), "virtual_ms");
  out->E2e("sim_latency_ms_p99", Percentile(e2e, 0.99), "virtual_ms");
  out->E2e("sim_goodput_rps",
           Ratio(static_cast<double>(s.good_iters), sum_ms / 1e3),
           "1/virtual_s");
  out->E2e("sim_capacity_rps", Ratio(n, sum_ms / 1e3), "1/virtual_s");
  char line[160];
  std::snprintf(line, sizeof(line),
                "sim window: %zu iterations (p99 has %zu samples above it)",
                e2e.size(), e2e.size() - static_cast<size_t>(0.99 * n + 0.5));
  out->Note(line);
}

void FillLayers(const Stream& s, LayerSheet* sheet) {
  const double k = static_cast<double>(s.e2e_ms.size());
  const auto& g = s.gather;
  const auto& w = s.window;
  sheet->page_requests_per_op =
      Ratio(static_cast<double>(g.total_page_requests()), k);
  sheet->serviced_per_op =
      Ratio(static_cast<double>(g.serviced_page_requests()), k);
  sheet->ssd_reads_per_op = Ratio(static_cast<double>(g.storage_reads), k);
  sheet->cpu_buffer_share =
      Ratio(static_cast<double>(g.cpu_buffer_hits),
            static_cast<double>(g.serviced_page_requests()));
  sheet->cache_hit_ratio =
      Ratio(static_cast<double>(g.gpu_cache_hits),
            static_cast<double>(g.gpu_cache_hits + g.storage_reads));
  sheet->dedup_ratio = Ratio(static_cast<double>(g.coalesced_requests),
                             static_cast<double>(g.total_page_requests()));
  sheet->evictions_per_op = Ratio(static_cast<double>(w.evictions), k);
  sheet->probe_skips_per_op = Ratio(static_cast<double>(w.probe_skips), k);
  sheet->bypasses = static_cast<double>(w.bypasses);
  sheet->retries = static_cast<double>(w.retries);
  sheet->timeouts = static_cast<double>(w.timeouts);
  sheet->dead_letters = static_cast<double>(w.dead_letters);
  sheet->crc_mismatches = static_cast<double>(w.crc_mismatches);
  sheet->repairs = static_cast<double>(w.repairs);
  sheet->failovers = static_cast<double>(w.failovers);
  sheet->retry_ratio = Ratio(static_cast<double>(w.retries),
                             static_cast<double>(w.reads));
  sheet->journal_records = static_cast<double>(w.journal_records);
  sheet->journal_bytes = static_cast<double>(w.journal_bytes);
  sheet->write_amp =
      Ratio(static_cast<double>(w.journal_bytes + w.applied_page_bytes),
            static_cast<double>(w.logical_bytes));
  sheet->mutations_applied = static_cast<double>(w.applied);
  for (int i = 0; i < IterationLedger::kNumComponents; ++i) {
    sheet->ledger_ms[i] =
        Ratio(static_cast<double>(s.ledger.component(i)) / 1e6, k);
  }
  sheet->pool_tasks = static_cast<double>(w.pool_tasks);
  sheet->pool_chunks = static_cast<double>(w.pool_chunks);
  std::vector<double> handoff = s.handoff_ms;
  sheet->core_prep_ms_per_group =
      Ratio([&] {
        double t = 0;
        for (double v : s.prep_ms) t += v;
        return t;
      }(), static_cast<double>(s.prep_ms.size()));
  sheet->core_handoff_ms_p50 = Percentile(handoff, 0.50);
  sheet->core_handoff_ms_p99 = Percentile(handoff, 0.99);
  sheet->core_iters_per_group =
      Ratio(static_cast<double>(s.measured),
            static_cast<double>(s.prep_ms.size()));
}

RunResult RunTraining(const TrainSpec& spec, const RunConfig& cfg) {
  RunResult out;
  RefLoop ref(RefLoop::Kind::kRandomTable);
  gids::WorkspacePool& ws = gids::WorkspacePool::Default();
  std::unique_ptr<SpanLog> log;
  if (cfg.trace) log = std::make_unique<SpanLog>();

  // Setup: dataset build, loader construction (hot-node ranking and
  // CPU-buffer fill), warm-up. Repeated; setup_s is the median, and the
  // last setup's loader is the one measured.
  std::vector<double> setup_s;
  Inputs in;
  std::unique_ptr<Stream> stream;
  std::unique_ptr<Stream> untraced;  // traced runs: the A/B partner
  while (MoreSetups(cfg, setup_s)) {
    stream.reset();
    in = Inputs();
    const Clock::time_point t0 = Clock::now();
    in = BuildInputs(spec, cfg.seed, log.get());
    stream = std::make_unique<Stream>(spec, in, cfg.seed, log.get(), &out);
    setup_s.push_back(SecondsSince(t0));
  }
  const double setup_peak_mb = PeakRssMb();
  const double graph_build_s =
      log ? SpanSeconds(log->Collect(), "BuildDataset") : 0;
  if (cfg.trace) {
    untraced = std::make_unique<Stream>(spec, in, cfg.seed, nullptr, &out);
  }
  ws.Prewarm();
  const uint64_t ws_acq0 = ws.acquires_total();
  const uint64_t ws_hit0 = ws.hits_total();
  const uint64_t ws_alloc0 = ws.allocs_total();

  // Measured phase: segments of kSegmentSeconds with a reference-loop
  // timing between them, until the time budget is spent and the sim
  // window is full. Traced runs alternate turns between the traced loader
  // and an identical untraced one, giving trace.overhead; on an episodic
  // workload a turn is a whole episode, so each episode's resident growth
  // is its own.
  HostMeter meter(&ref, kSegmentSeconds);
  HostMeter untraced_meter(&ref, kSegmentSeconds);
  stream->BeginMeasure();
  if (untraced) untraced->BeginMeasure();
  const Clock::time_point start = Clock::now();
  while (stream->ok() && (!untraced || untraced->ok()) &&
         (SecondsSince(start) < cfg.seconds || !stream->window_full() ||
          (untraced && !untraced->window_full()))) {
    const bool whole_episode = spec.episodic && cfg.trace;
    if (untraced) RunTurn(*untraced, untraced_meter, whole_episode);
    RunTurn(*stream, meter, whole_episode);
  }
  const uint64_t ws_allocs = ws.allocs_total() - ws_alloc0;
  if (spec.check_ws_allocs && ws_allocs != 0) {
    out.Violation(std::string(spec.name) + ": " + std::to_string(ws_allocs) +
                  " WorkspacePool allocations in the measured phase after "
                  "Prewarm()");
  }
  if (untraced && untraced->fingerprint() != stream->fingerprint()) {
    out.Violation("traced and untraced loaders diverged");
  }

  const Stream& s = *stream;
  out.attempted = s.attempted + (untraced ? untraced->attempted : 0);
  out.failed = s.failed + (untraced ? untraced->failed : 0);
  out.fingerprint = s.fingerprint();
  for (std::string& note : meter.Notes()) out.Note(std::move(note));
  char line[200];
  std::snprintf(line, sizeof(line),
                "setup: %d runs, median %.3f s; peak RSS %.1f MB after setup",
                static_cast<int>(setup_s.size()), Median(setup_s),
                setup_peak_mb);
  out.Note(line);

  if (!cfg.trace) {
    out.E2e("setup_s", Median(setup_s), "s");
    out.E2e("ops_per_s", meter.ops_per_s(), "1/s");
    out.E2e("peak_rss_mb", PeakRssMb(), "MB");
    EmitSim(s, &out);
    return out;
  }

  LayerSheet sheet;
  sheet.graph_build_s = graph_build_s;
  sheet.core_init_s = s.init_s;
  sheet.core_warmup_s = s.warmup_s;
  FillLayers(s, &sheet);
  sheet.ws_allocs = static_cast<double>(ws_allocs);
  sheet.ws_hit_ratio =
      Ratio(static_cast<double>(ws.hits_total() - ws_hit0),
            static_cast<double>(ws.acquires_total() - ws_acq0));
  sheet.raw_ops_per_s = untraced_meter.raw_ops_per_s();
  FillHostRows({&meter, &untraced_meter}, &sheet);
  sheet.rss_growth_mb_per_kop =
      Ratio(s.rss_growth_mb(),
            static_cast<double>(spec.episodic ? spec.sim_iters : s.measured) /
                1e3);
  sheet.trace_overhead =
      1.0 - Ratio(meter.ops_per_s(), untraced_meter.ops_per_s());
  const SpanTotals t = FinishTrace(*log, "Next", meter, cfg, &sheet, &out);
  sheet.core_self_ms_per_op =
      Ratio(t.op_ms - t.sampler_ms, static_cast<double>(meter.ops()));
  sheet.EmitTo(&out);
  return out;
}

TrainSpec TrainPaperSpec(const RunConfig& cfg) {
  TrainSpec spec;
  spec.name = "train-paper";
  spec.dataset = gids::graph::DatasetSpec::IgbFull();
  spec.scale = cfg.tiny ? 1.0 / 65536 : 1.0 / 1024;
  spec.batch = 16;
  spec.options.counting_mode = true;
  spec.options.host_threads = 1;
  spec.warmup = cfg.tiny ? 16 : 64;
  spec.sim_iters = cfg.tiny ? 64 : 2000;
  spec.check_ws_allocs = true;
  return spec;
}

}  // namespace

RunResult RunTrainPaper(const RunConfig& cfg) {
  return RunTraining(TrainPaperSpec(cfg), cfg);
}

RunResult RunTrainParallel(const RunConfig& cfg) {
  TrainSpec spec;
  spec.name = "train-parallel";
  spec.dataset = gids::graph::DatasetSpec::OgbnPapers100M();
  spec.scale = cfg.tiny ? 1.0 / 65536 : 1.0 / 2048;
  spec.batch = cfg.tiny ? 128 : 1024;
  spec.options.counting_mode = true;
  spec.options.coalesce_pages = true;
  spec.options.host_threads = cfg.host_threads != 0 ? cfg.host_threads : 3;
  spec.options.prefetch_depth = 0;
  spec.warmup = 16;
  spec.sim_iters = cfg.tiny ? 24 : 150;
  spec.check_ws_allocs = true;
  return RunTraining(spec, cfg);
}

RunResult RunMutateFailover(const RunConfig& cfg) {
  TrainSpec spec;
  spec.name = "mutate-failover";
  spec.dataset = gids::graph::DatasetSpec::IgbFull();
  spec.scale = cfg.tiny ? 1.0 / 65536 : 1.0 / 4096;
  spec.batch = 16;
  spec.n_ssd = 4;
  spec.warmup = cfg.tiny ? 8 : 32;
  spec.sim_iters = cfg.tiny ? 48 : 200;
  spec.episodic = true;
  GidsOptions& o = spec.options;
  o.counting_mode = false;
  o.host_threads = 1;
  o.replication_factor = 2;
  o.durability = "quorum";
  o.offline_devices = {1};
  // Device 1 goes dark about halfway through the episode's virtual time.
  o.offline_at_ns = cfg.tiny ? 60 * gids::kNsPerMs : 340 * gids::kNsPerMs;
  o.fault_rate = 0.002;
  o.latency_spike_rate = 0.0005;
  o.latency_spike_ns = 100 * gids::kNsPerUs;
  o.corruption_rate = 0.001;
  o.verify_reads = true;
  o.updates_per_iter = 8;
  o.edge_ops_per_iter = 4;
  o.crash_at_group = cfg.no_crash ? -1 : (cfg.tiny ? 8 : 44);
  return RunTraining(spec, cfg);
}

}  // namespace perfbench
