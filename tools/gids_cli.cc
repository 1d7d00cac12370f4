// gids_cli — command-line driver for the GIDS reproduction.
//
//   gids_cli generate --dataset IGB-Full --scale 0.0039 --out igb.gids
//   gids_cli info     --in igb.gids
//   gids_cli run      --dataset IGB-Full --scale 0.0039 --loader gids
//                     --ssd optane --n-ssd 1 --batch 16 --fanout 10,5,5
//                     --warmup 100 --measure 30 [--csv iters.csv]
//                     [--metrics-json=metrics.json] [--metrics-prom=out.prom]
//                     [--prom-buckets] [--trace-json=trace.json]
//                     [--timeline-json=t.json] [--timeline-csv=t.csv]
//                     [--timeline-window-us 1000] [--report-top-k 5]
//                     [--no-accumulator] [--no-window] [--no-cpu-buffer]
//                     [--cpu-buffer-frac 0.1] [--window-depth 8]
//                     [--host-threads 8] [--no-workspace-pool]
//   gids_cli report   --in t.json [--report-top-k 5]
//
// `run` accepts either --dataset/--scale (generate on the fly) or
// --in <file.gids> (load a saved proxy). Prints a per-stage summary and,
// with --csv, writes per-iteration virtual-time stats for plotting.
// `report` renders a --timeline-json document as the tail-latency
// attribution report (windowed timeline + top-K slowest iterations with
// their dominant cost-ledger component; see OBSERVABILITY.md). A flag the
// subcommand does not read (misspelt, or not applicable to the chosen
// loader) exits with status 2 before any loader runs or file is written.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/gids_loader.h"
#include "core/trainer.h"
#include "graph/dataset.h"
#include "graph/pagerank.h"
#include "graph/serialization.h"
#include "loaders/ginex_loader.h"
#include "loaders/mmap_loader.h"
#include "obs/exemplar.h"
#include "obs/metric_registry.h"
#include "obs/report.h"
#include "obs/time_series.h"
#include "obs/trace_recorder.h"
#include "sampling/neighbor_sampler.h"
#include "sampling/seed_iterator.h"
#include "sim/pipeline_des.h"
#include "sim/system_model.h"
#include "storage/cache_policy.h"

namespace {

using namespace gids;

// --- Minimal flag parsing: --key value, --key=value, and boolean --key.
// Every accessor records the name it was asked for, so RejectUnread() can
// name the flags the subcommand never read. A bare --key (the last
// argument, or followed by another --flag) has no value: GetBool accepts
// it, and every value accessor exits with status 2.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        std::fprintf(stderr, "gids_cli: unexpected argument '%s'\n",
                     arg.c_str());
        std::exit(2);
      }
      std::string key = arg.substr(2);
      size_t eq = key.find('=');
      if (eq != std::string::npos) {
        values_[key.substr(0, eq)] = key.substr(eq + 1);
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_[key] = argv[++i];
      } else {
        values_[key] = std::nullopt;
      }
    }
  }

  std::string Get(const std::string& key,
                  const std::string& fallback = "") const {
    const std::string* value = Find(key);
    return value == nullptr ? fallback : *value;
  }
  // Numeric flags accept a value only when all of it parses (integers in
  // base 0, so hex seeds work) and lies in [min, max]; anything else
  // exits with status 2 before a loader is built.
  double GetDouble(const std::string& key, double fallback) const {
    const std::string* value = Find(key);
    if (value == nullptr) return fallback;
    const char* text = value->c_str();
    char* end = nullptr;
    errno = 0;
    double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE) Invalid(key, *value);
    return v;
  }
  long GetInt(const std::string& key, long fallback, long min = LONG_MIN,
              long max = LONG_MAX) const {
    const std::string* value = Find(key);
    if (value == nullptr) return fallback;
    long v = 0;
    if (!ParseLong(*value, min, max, &v)) Invalid(key, *value);
    return v;
  }
  /// Counts and sizes: never negative, and small enough for an int field.
  long GetCount(const std::string& key, long fallback, long min = 0) const {
    return GetInt(key, fallback, min, INT_MAX);
  }
  /// A comma-separated list of ints, each at least `min`.
  std::vector<int> GetIntList(const std::string& key,
                              const std::string& fallback, long min) const {
    const std::string csv = Get(key, fallback);
    std::vector<int> out;
    // Every comma starts one more entry, so "10,5," is rejected.
    for (size_t pos = 0; !csv.empty() && pos <= csv.size();) {
      size_t comma = std::min(csv.find(',', pos), csv.size());
      long v = 0;
      if (!ParseLong(csv.substr(pos, comma - pos), min, INT_MAX, &v)) {
        Invalid(key, csv);
      }
      out.push_back(static_cast<int>(v));
      pos = comma + 1;
    }
    return out;
  }
  bool GetBool(const std::string& key) const {
    read_.insert(key);
    return values_.count(key) != 0;
  }
  /// True if the value flag `key` was given.
  bool Has(const std::string& key) const { return Find(key) != nullptr; }

  /// Exits with status 2, one message per flag, if any flag given was
  /// never read: call it once the subcommand has read all of its flags.
  void RejectUnread() const {
    bool unread = false;
    for (const auto& [key, value] : values_) {
      if (read_.count(key) == 0) {
        std::fprintf(stderr, "gids_cli: unknown flag --%s\n", key.c_str());
        unread = true;
      }
    }
    if (unread) std::exit(2);
  }

 private:
  /// The value of flag `key`, or null if it was not given. A bare `key`
  /// exits with status 2.
  const std::string* Find(const std::string& key) const {
    read_.insert(key);
    auto it = values_.find(key);
    if (it == values_.end()) return nullptr;
    if (!it->second.has_value()) {
      std::fprintf(stderr, "gids_cli: flag --%s needs a value\n",
                   key.c_str());
      std::exit(2);
    }
    return &*it->second;
  }
  static bool ParseLong(const std::string& text, long min, long max,
                        long* out) {
    char* end = nullptr;
    errno = 0;
    *out = std::strtol(text.c_str(), &end, 0);
    return end != text.c_str() && *end == '\0' && errno != ERANGE &&
           *out >= min && *out <= max;
  }
  [[noreturn]] static void Invalid(const std::string& key,
                                   const std::string& value) {
    std::fprintf(stderr, "gids_cli: invalid value for --%s: '%s'\n",
                 key.c_str(), value.c_str());
    std::exit(2);
  }

  std::map<std::string, std::optional<std::string>> values_;
  mutable std::set<std::string> read_;
};

/// The catalog entry named `name`; an unknown name exits with status 2
/// before anything is built.
graph::DatasetSpec SpecByName(const std::string& name) {
  for (const auto& spec : graph::DatasetSpec::RealWorld()) {
    if (spec.name == name) return spec;
  }
  for (const auto& spec : graph::DatasetSpec::IgbMicro()) {
    if (spec.name == name) return spec;
  }
  std::fprintf(stderr,
               "gids_cli: unknown dataset '%s' (see bench_tab02_datasets "
               "for the catalog)\n",
               name.c_str());
  std::exit(2);
}

/// The dataset the flags name: a saved proxy (--in) or a catalog entry
/// generated on the fly (--dataset, --scale, --seed). Constructing it
/// reads and checks those flags; Build() is the only step that loads or
/// generates anything.
class DatasetSource {
 public:
  explicit DatasetSource(const Flags& flags) {
    if (flags.Has("in")) {
      path_ = flags.Get("in");
    } else {
      spec_ = SpecByName(flags.Get("dataset", "IGB-tiny"));
      scale_ = flags.GetDouble("scale", 1.0 / 256);
      seed_ = static_cast<uint64_t>(flags.GetInt("seed", 42));
    }
  }

  StatusOr<graph::Dataset> Build() const {
    if (!path_.empty()) return graph::LoadDataset(path_);
    return graph::BuildDataset(spec_, scale_, seed_);
  }

 private:
  std::string path_;  // --in; empty = generate
  graph::DatasetSpec spec_;
  double scale_ = 0;
  uint64_t seed_ = 0;
};

int CmdGenerate(const Flags& flags) {
  const std::string out = flags.Get("out", "dataset.gids");
  const DatasetSource source(flags);
  flags.RejectUnread();
  auto dataset = source.Build();
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  Status s = graph::SaveDataset(*dataset, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %u nodes, %llu edges, dim %u\n", out.c_str(),
              dataset->graph.num_nodes(),
              static_cast<unsigned long long>(dataset->graph.num_edges()),
              dataset->features.feature_dim());
  return 0;
}

int CmdInfo(const Flags& flags) {
  const std::string path = flags.Get("in");
  flags.RejectUnread();
  auto dataset = graph::LoadDataset(path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const graph::Dataset& ds = *dataset;
  std::printf("name:           %s (scale %.6f)\n", ds.spec.name.c_str(),
              ds.scale);
  std::printf("kind:           %s\n",
              ds.spec.kind == graph::GraphKind::kHeterogeneous
                  ? "heterogeneous"
                  : "homogeneous");
  std::printf("nodes:          %u\n", ds.graph.num_nodes());
  std::printf("edges:          %llu\n",
              static_cast<unsigned long long>(ds.graph.num_edges()));
  std::printf("feature dim:    %u (%.2f GB total)\n",
              ds.features.feature_dim(),
              static_cast<double>(ds.feature_bytes()) / 1e9);
  std::printf("structure:      %.2f MB (pinned in CPU memory)\n",
              static_cast<double>(ds.structure_bytes()) / 1e6);
  std::printf("train ids:      %zu\n", ds.train_ids.size());
  for (const auto& t : ds.node_types) {
    std::printf("node type:      %-14s [%u, %u)\n", t.name.c_str(), t.offset,
                t.offset + t.count);
  }
  return 0;
}

int CmdRun(const Flags& flags) {
  // Every flag is read, checked and applied to the options before the
  // dataset is built, so a bad one exits with status 2 at once.
  const std::vector<int> fanouts =
      flags.GetIntList("fanout", "10,5,5", /*min=*/1);
  const auto batch =
      static_cast<uint32_t>(flags.GetCount("batch", 16, /*min=*/1));
  const long warmup = flags.GetCount("warmup", 100);
  const long measure = flags.GetCount("measure", 30);
  // Written after the run, but read now so RejectUnread() below sees them
  // (--prom-buckets only with --metrics-prom, the file it formats).
  const std::string csv_path = flags.Get("csv");
  const std::string des_trace_path = flags.Get("trace");
  const bool prom_buckets =
      flags.Has("metrics-prom") && flags.GetBool("prom-buckets");
  const std::string ssd_name = flags.Get("ssd", "optane");
  if (ssd_name != "optane" && ssd_name != "samsung") {
    std::fprintf(stderr, "gids_cli: unknown --ssd '%s' (optane, samsung)\n",
                 ssd_name.c_str());
    return 2;
  }
  const std::string kind = flags.Get("loader", "gids");
  const bool gids_family = kind == "bam" || kind == "gids";
  if (!gids_family && kind != "mmap" && kind != "ginex") {
    std::fprintf(stderr,
                 "gids_cli: unknown loader '%s' (mmap|ginex|bam|gids)\n",
                 kind.c_str());
    return 2;
  }
  // Cache policy selection (CACHING.md); random unless named. Read only
  // for the loaders with a GPU cache, so RejectUnread() below names
  // --cache-policy given to mmap or ginex.
  std::optional<storage::CachePolicyKind> cache_policy;
  if (gids_family && flags.Has("cache-policy")) {
    const std::string policy_name = flags.Get("cache-policy");
    storage::CachePolicyKind policy_kind = storage::CachePolicyKind::kRandom;
    if (!storage::ParseCachePolicyKind(policy_name, &policy_kind)) {
      std::fprintf(stderr,
                   "gids_cli: unknown --cache-policy '%s' (random, belady, "
                   "presample)\n",
                   policy_name.c_str());
      return 2;
    }
    cache_policy = policy_kind;
  }
  const DatasetSource source(flags);
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 42));

  sim::SsdSpec ssd = ssd_name == "samsung" ? sim::SsdSpec::Samsung980Pro()
                                           : sim::SsdSpec::IntelOptane();
  sim::SystemConfig cfg = sim::SystemConfig::Paper(
      ssd, static_cast<int>(flags.GetCount("n-ssd", 1, /*min=*/1)));
  // Defaults to the dataset's own scale, known only once it is built.
  std::optional<double> memory_scale;
  if (flags.Has("memory-scale")) {
    memory_scale = flags.GetDouble("memory-scale", 0.0);
  }

  // Observability sinks (see OBSERVABILITY.md). Created whenever an
  // export path was requested; the loaders self-instrument against them.
  obs::MetricRegistry metrics;
  obs::TraceRecorder trace;
  obs::MetricRegistry* metrics_ptr =
      flags.Has("metrics-json") || flags.Has("metrics-prom") ? &metrics
                                                             : nullptr;
  obs::TraceRecorder* trace_ptr =
      flags.Has("trace-json") ? &trace : nullptr;

  // Tail-latency attribution sinks (OBSERVABILITY.md): a windowed
  // time-series over the virtual clock plus a top-K reservoir of the
  // slowest iterations. Only created when a timeline export was requested,
  // so runs without one keep their exact metric/trace output.
  const bool want_timeline =
      flags.Has("timeline-json") || flags.Has("timeline-csv");
  const size_t report_top_k = static_cast<size_t>(
      std::max<long>(1, flags.GetCount("report-top-k", 5)));
  std::unique_ptr<obs::TimeSeries> timeline;
  std::unique_ptr<obs::ExemplarReservoir> exemplars;
  std::unique_ptr<obs::ExemplarReservoir> failover_exemplars;
  if (want_timeline) {
    timeline = std::make_unique<obs::TimeSeries>(
        UsToNs(flags.GetDouble("timeline-window-us", 1000.0)));
    exemplars = std::make_unique<obs::ExemplarReservoir>(report_top_k);
  }

  core::GidsOptions opts =
      kind == "bam" ? core::GidsOptions::Bam() : core::GidsOptions{};
  if (gids_family) {
    opts.counting_mode = true;
    if (flags.GetBool("no-accumulator")) opts.use_accumulator = false;
    if (flags.GetBool("no-window")) opts.use_window_buffering = false;
    if (flags.GetBool("no-cpu-buffer")) opts.use_cpu_buffer = false;
    opts.cpu_buffer_fraction = flags.GetDouble("cpu-buffer-frac", 0.10);
    opts.window_depth =
        static_cast<int>(flags.GetCount("window-depth", 8));
    opts.host_threads =
        static_cast<uint32_t>(flags.GetCount("host-threads", 1));
    opts.coalesce_pages = flags.GetBool("coalesce-pages");
    // Escape hatch for the size-bucketed workspace pool (DESIGN.md §11):
    // every scratch acquire falls back to plain malloc/free. Results are
    // bit-identical either way.
    if (flags.GetBool("no-workspace-pool")) opts.workspace_pool = false;
    // Storage fault injection & retry policy (FAULTS.md).
    opts.fault_rate = flags.GetDouble("fault-rate", 0.0);
    opts.fault_seed =
        static_cast<uint64_t>(flags.GetInt("fault-seed", 0xfa017));
    opts.latency_spike_rate = flags.GetDouble("latency-spike-rate", 0.0);
    opts.latency_spike_ns =
        UsToNs(flags.GetDouble("latency-spike-us", 500.0));
    opts.stuck_queue_rate = flags.GetDouble("stuck-queue-rate", 0.0);
    if (flags.Has("offline-devices")) {
      opts.offline_devices = flags.GetIntList("offline-devices", "", 0);
    }
    opts.offline_at_ns = UsToNs(flags.GetDouble("offline-at-us", 0.0));
    opts.io_max_retries =
        static_cast<uint32_t>(flags.GetCount("io-max-retries", 4));
    opts.io_timeout_ns = UsToNs(flags.GetDouble("io-timeout-us", 1000.0));
    opts.io_backoff_ns = UsToNs(flags.GetDouble("io-backoff-us", 20.0));
    // End-to-end data integrity (INTEGRITY.md).
    opts.corruption_rate = flags.GetDouble("corruption-rate", 0.0);
    opts.crc_seed =
        static_cast<uint64_t>(flags.GetInt("crc-seed", 0xc3c32c));
    opts.verify_reads = flags.GetBool("verify-reads");
    opts.verify_cache_fill = flags.GetBool("verify-cache-fill");
    opts.verify_cache_hit = flags.GetBool("verify-cache-hit");
    opts.scrub_pages_per_iter =
        static_cast<uint32_t>(flags.GetCount("scrub-pages-per-iter", 0));
    // Durability & replication (FAULTS.md "Durability & failover").
    opts.replication_factor =
        static_cast<int>(flags.GetCount("replication-factor", 1, /*min=*/1));
    opts.write_quorum = static_cast<int>(flags.GetCount("write-quorum", 0));
    opts.updates_per_iter =
        static_cast<uint32_t>(flags.GetCount("updates-per-iter", 0));
    opts.edge_ops_per_iter =
        static_cast<uint32_t>(flags.GetCount("edge-ops-per-iter", 0));
    opts.mutation_seed = static_cast<uint64_t>(
        flags.GetInt("mutation-seed", 0x6d7574a73ll));
    opts.durability = flags.Get("durability", "quorum");
    opts.journal_apply_budget =
        static_cast<uint64_t>(flags.GetCount("journal-apply-budget", 0));
    opts.crash_at_group =
        static_cast<int>(flags.GetCount("crash-at-group", -1, /*min=*/-1));
    opts.crash_seed =
        static_cast<uint64_t>(flags.GetInt("crash-seed", 0xc4a54));
    if (want_timeline && opts.replication_factor > 1) {
      failover_exemplars = std::make_unique<obs::ExemplarReservoir>(
          report_top_k, obs::ExemplarReservoir::RankBy::kMostFailovers);
      opts.failover_exemplars = failover_exemplars.get();
    }
    if (cache_policy) {
      opts.cache_policy = *cache_policy;
      std::printf("cache policy: %s\n",
                  storage::CachePolicyKindName(*cache_policy));
    }
    opts.presample_iterations =
        static_cast<uint32_t>(flags.GetCount("presample-iters", 32));
    opts.presample_seed =
        static_cast<uint64_t>(flags.GetInt("presample-seed", 0x9e5a));
    opts.presample_rerank_groups =
        static_cast<uint32_t>(flags.GetCount("presample-rerank-groups", 0));
    if (Status valid = opts.Validate(cfg.n_ssd); !valid.ok()) {
      std::fprintf(stderr, "gids_cli: invalid options: %s\n",
                   valid.message().c_str());
      return 2;
    }
    opts.metrics = metrics_ptr;
    opts.trace = trace_ptr;
    opts.timeline = timeline.get();
    opts.exemplars = exemplars.get();
  }
  flags.RejectUnread();

  auto dataset_or = source.Build();
  if (!dataset_or.ok()) {
    std::fprintf(stderr, "%s\n", dataset_or.status().ToString().c_str());
    return 1;
  }
  graph::Dataset dataset = std::move(dataset_or).value();
  cfg.memory_scale = memory_scale.value_or(dataset.scale);
  sim::SystemModel system(cfg);

  sampling::NeighborSampler sampler(&dataset.graph, {.fanouts = fanouts},
                                    seed ^ 0x5a3e);
  sampling::SeedIterator seeds(dataset.train_ids, batch, seed ^ 0x5eed);

  std::unique_ptr<loaders::DataLoader> loader;
  std::vector<graph::NodeId> hot_order;
  if (kind == "mmap") {
    loader = std::make_unique<loaders::MmapLoader>(
        &dataset, &sampler, &seeds, &system,
        loaders::MmapLoaderOptions{.counting_mode = true,
                                   .metrics = metrics_ptr,
                                   .trace = trace_ptr,
                                   .timeline = timeline.get(),
                                   .exemplars = exemplars.get()});
  } else if (kind == "ginex") {
    loaders::GinexLoaderOptions gopts;
    gopts.counting_mode = true;
    gopts.metrics = metrics_ptr;
    gopts.trace = trace_ptr;
    gopts.timeline = timeline.get();
    gopts.exemplars = exemplars.get();
    loader = std::make_unique<loaders::GinexLoader>(&dataset, &sampler,
                                                    &seeds, &system, gopts);
  } else {
    if (opts.use_cpu_buffer &&
        opts.cache_policy != storage::CachePolicyKind::kPresample) {
      // The presample policy ranks the buffer itself; every other kind
      // pins by the precomputed PageRank order, as before.
      auto score = graph::WeightedReversePageRank(dataset.graph, {});
      hot_order = graph::RankNodesByScore(score);
      opts.hot_node_order = &hot_order;
    }
    loader = std::make_unique<core::GidsLoader>(&dataset, &sampler, &seeds,
                                                &system, opts);
  }

  core::Trainer trainer(
      &dataset,
      {.warmup_iterations = static_cast<uint64_t>(warmup),
       .measure_iterations = static_cast<uint64_t>(measure)});
  auto result = trainer.Run(*loader);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  const loaders::IterationStats& m = result->measured;
  uint64_t n = result->per_iteration.size();
  std::printf("loader:       %s on %s x%d\n",
              std::string(loader->name()).c_str(), ssd.name.c_str(),
              cfg.n_ssd);
  std::printf("iterations:   %llu measured (after %ld warm-up)\n",
              static_cast<unsigned long long>(n), warmup);
  std::printf("e2e:          %.3f virtual ms/iter\n",
              result->mean_iteration_ms());
  std::printf("  sampling    %.3f ms/iter\n", NsToMs(m.sampling_ns) / n);
  std::printf("  aggregation %.3f ms/iter\n", NsToMs(m.aggregation_ns) / n);
  std::printf("  transfer    %.3f ms/iter\n", NsToMs(m.transfer_ns) / n);
  std::printf("  training    %.3f ms/iter\n", NsToMs(m.training_ns) / n);
  std::printf("traffic:      %llu cache hits, %llu CPU-buffer hits, "
              "%llu storage reads\n",
              static_cast<unsigned long long>(m.gather.gpu_cache_hits),
              static_cast<unsigned long long>(m.gather.cpu_buffer_hits),
              static_cast<unsigned long long>(m.gather.storage_reads));
  std::printf("cache hit:    %.1f%%\n",
              100.0 * result->gpu_cache_hit_ratio());
  if (m.gather.degraded_nodes > 0) {
    std::printf("degraded:     %llu nodes zero-filled after exhausted "
                "retries (see FAULTS.md)\n",
                static_cast<unsigned long long>(m.gather.degraded_nodes));
  }
  if (m.gather.corrupt_nodes > 0) {
    std::printf("corrupt:      %llu nodes zero-filled after unrepairable "
                "checksum mismatches (see INTEGRITY.md)\n",
                static_cast<unsigned long long>(m.gather.corrupt_nodes));
  }
  std::string journal_json;
  if (auto* gids = dynamic_cast<core::GidsLoader*>(loader.get());
      gids != nullptr) {
    const storage::StorageArray& sa = gids->storage_array();
    if (sa.verified_reads_total() > 0) {
      std::printf("integrity:    %llu reads verified, %llu mismatches, "
                  "%llu repaired, %llu lost (see INTEGRITY.md)\n",
                  static_cast<unsigned long long>(sa.verified_reads_total()),
                  static_cast<unsigned long long>(
                      sa.checksum_mismatches_total()),
                  static_cast<unsigned long long>(
                      sa.integrity_repairs_total()),
                  static_cast<unsigned long long>(sa.data_loss_total()));
    }
    if (sa.replica_set() != nullptr) {
      std::printf("replication:  factor %d, %llu reads failed over, "
                  "%llu lost quorum (see FAULTS.md)\n",
                  sa.replica_set()->options().replication_factor,
                  static_cast<unsigned long long>(
                      sa.replica_failovers_total()),
                  static_cast<unsigned long long>(
                      sa.replica_quorum_lost_total()));
    }
    if (sa.journal_enabled()) {
      const storage::JournalCounters& jc = sa.journal()->counters();
      std::printf("journal:      %llu appends, %llu fsyncs, %llu applied, "
                  "%llu replayed, %llu resubmitted, write amp %.2f\n",
                  static_cast<unsigned long long>(jc.appends.load()),
                  static_cast<unsigned long long>(jc.fsyncs.load()),
                  static_cast<unsigned long long>(jc.applied.load()),
                  static_cast<unsigned long long>(jc.replayed.load()),
                  static_cast<unsigned long long>(jc.resubmitted.load()),
                  sa.journal()->WriteAmplification());
      char jbuf[512];
      std::snprintf(
          jbuf, sizeof(jbuf),
          "{\"appends\":%llu,\"fsyncs\":%llu,\"applied\":%llu,"
          "\"replayed\":%llu,\"truncated\":%llu,\"torn\":%llu,"
          "\"resubmitted\":%llu,\"quorum_stalls\":%llu,\"crashes\":%llu,"
          "\"recovers\":%llu,\"pending\":%llu,\"write_amplification\":%.4f}",
          static_cast<unsigned long long>(jc.appends.load()),
          static_cast<unsigned long long>(jc.fsyncs.load()),
          static_cast<unsigned long long>(jc.applied.load()),
          static_cast<unsigned long long>(jc.replayed.load()),
          static_cast<unsigned long long>(jc.truncated.load()),
          static_cast<unsigned long long>(jc.torn.load()),
          static_cast<unsigned long long>(jc.resubmitted.load()),
          static_cast<unsigned long long>(jc.quorum_stalls.load()),
          static_cast<unsigned long long>(jc.crashes.load()),
          static_cast<unsigned long long>(jc.recovers.load()),
          static_cast<unsigned long long>(sa.journal()->pending_records()),
          sa.journal()->WriteAmplification());
      journal_json = jbuf;
    }
  }

  if (flags.Has("metrics-json")) {
    std::string path = flags.Get("metrics-json");
    Status s = metrics.WriteJson(path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu series)\n", path.c_str(),
                metrics.Snapshot().size());
  }
  if (flags.Has("metrics-prom")) {
    std::string path = flags.Get("metrics-prom");
    // --prom-buckets switches histograms from quantile summaries to native
    // cumulative _bucket{le=...} exposition (OBSERVABILITY.md).
    Status s = metrics.WritePrometheusText(path, prom_buckets);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu series)\n", path.c_str(),
                metrics.Snapshot().size());
  }
  if (flags.Has("trace-json")) {
    std::string path = flags.Get("trace-json");
    Status s = trace.WriteJson(path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu events; open in chrome://tracing)\n",
                path.c_str(), trace.num_events());
  }
  if (flags.Has("timeline-json")) {
    std::string path = flags.Get("timeline-json");
    obs::TimelineExtras extras;
    extras.failover_exemplars = failover_exemplars.get();
    extras.journal_json = journal_json;
    Status s = obs::WriteTimelineJson(path, std::string(loader->name()),
                                      *timeline, *exemplars, &extras);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%zu windows, %zu exemplars; render with "
                "`gids_cli report --in %s`)\n",
                path.c_str(), timeline->windows().size(), exemplars->size(),
                path.c_str());
  }
  if (flags.Has("timeline-csv")) {
    std::string path = flags.Get("timeline-csv");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", path.c_str());
      return 1;
    }
    std::string csv = timeline->ToCsv();
    size_t written = std::fwrite(csv.data(), 1, csv.size(), f);
    int close_rc = std::fclose(f);
    if (written != csv.size() || close_rc != 0) {
      std::fprintf(stderr, "short write to %s\n", path.c_str());
      return 1;
    }
    std::printf("wrote %s (%zu windows)\n", path.c_str(),
                timeline->windows().size());
  }

  if (!des_trace_path.empty()) {
    // Replay the measured stage costs through the pipeline DES and export
    // a chrome://tracing timeline of the run.
    std::vector<sim::StageCosts> stages;
    for (const auto& st : result->per_iteration) {
      stages.push_back(sim::StageCosts{.sampling_ns = st.sampling_ns,
                                       .aggregation_ns = st.aggregation_ns,
                                       .transfer_ns = st.transfer_ns,
                                       .training_ns = st.training_ns});
    }
    sim::PipelinePolicy policy =
        kind == "mmap" ? sim::PipelinePolicy::kSerial
        : kind == "ginex"
            ? sim::PipelinePolicy::kPrepOverlapsAggregation
            : sim::PipelinePolicy::kDecoupled;
    std::vector<sim::TaskInterval> timeline;
    sim::PipelineResult des = sim::SimulatePipeline(stages, policy, &timeline);
    Status s = sim::WriteChromeTrace(timeline, des_trace_path);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (makespan %.3f ms; GPU %.0f%% / IO %.0f%% / "
                "CPU %.0f%% utilized)\n",
                des_trace_path.c_str(), NsToMs(des.makespan_ns),
                100 * des.gpu_utilization(), 100 * des.io_utilization(),
                100 * des.cpu_utilization());
  }

  if (!csv_path.empty()) {
    std::FILE* f = std::fopen(csv_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", csv_path.c_str());
      return 1;
    }
    std::fprintf(f,
                 "iter,e2e_ms,sampling_ms,aggregation_ms,transfer_ms,"
                 "training_ms,input_nodes,cache_hits,cpu_buffer_hits,"
                 "storage_reads,merged_group\n");
    for (size_t i = 0; i < result->per_iteration.size(); ++i) {
      const auto& st = result->per_iteration[i];
      std::fprintf(
          f, "%zu,%.6f,%.6f,%.6f,%.6f,%.6f,%llu,%llu,%llu,%llu,%u\n", i,
          NsToMs(st.e2e_ns), NsToMs(st.sampling_ns),
          NsToMs(st.aggregation_ns), NsToMs(st.transfer_ns),
          NsToMs(st.training_ns),
          static_cast<unsigned long long>(st.input_nodes),
          static_cast<unsigned long long>(st.gather.gpu_cache_hits),
          static_cast<unsigned long long>(st.gather.cpu_buffer_hits),
          static_cast<unsigned long long>(st.gather.storage_reads),
          st.merged_group);
    }
    std::fclose(f);
    std::printf("wrote %s\n", csv_path.c_str());
  }
  return 0;
}

int CmdReport(const Flags& flags) {
  const std::string path = flags.Get("in");
  const size_t top_k = static_cast<size_t>(
      std::max<long>(1, flags.GetCount("report-top-k", 5)));
  flags.RejectUnread();
  if (path.empty()) {
    std::fprintf(stderr, "report requires --in <timeline.json>\n");
    return 2;
  }
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::string doc;
  char buf[1 << 16];
  size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    doc.append(buf, got);
  }
  std::fclose(f);
  auto report = obs::RenderTimelineReport(doc, top_k);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::fputs(report->c_str(), stdout);
  return 0;
}

void Usage() {
  std::fprintf(
      stderr,
      "usage: gids_cli <generate|info|run|report> [--flags]\n"
      "  generate --dataset NAME --scale S [--seed N] --out FILE\n"
      "  info     --in FILE\n"
      "  report   --in TIMELINE.json [--report-top-k K]\n"
      "           (tail-latency attribution from a --timeline-json run)\n"
      "  run      (--dataset NAME --scale S | --in FILE)\n"
      "           --loader mmap|ginex|bam|gids --ssd optane|samsung\n"
      "           [--n-ssd N --batch B --fanout a,b,c --warmup W\n"
      "            --measure M --csv FILE --trace FILE.json\n"
      "            --metrics-json FILE --metrics-prom FILE\n"
      "            --prom-buckets (cumulative _bucket{le=...} exposition)\n"
      "            --trace-json FILE (per-iteration virtual-time spans)\n"
      "            --timeline-json FILE --timeline-csv FILE\n"
      "            --timeline-window-us U --report-top-k K\n"
      "            (windowed timeline + cost-ledger exemplars;\n"
      "             OBSERVABILITY.md)\n"
      "            --no-accumulator --no-window --no-cpu-buffer\n"
      "            --cpu-buffer-frac F --window-depth D\n"
      "            --host-threads N (parallel data prep, bam/gids)\n"
      "            --coalesce-pages (one round-trip per distinct page)\n"
      "            --no-workspace-pool (scratch via plain malloc/free;\n"
      "             bit-identical escape hatch, DESIGN.md §11)\n"
      "            --cache-policy random|belady|presample\n"
      "            --presample-iters N --presample-seed N\n"
      "            --presample-rerank-groups G\n"
      "            (cache replacement/admission policy; see CACHING.md)\n"
      "            --fault-rate F --fault-seed N (storage fault injection)\n"
      "            --latency-spike-rate F --latency-spike-us U\n"
      "            --stuck-queue-rate F --offline-devices D1,D2\n"
      "            --offline-at-us U\n"
      "            (outage set + virtual-time onset; see FAULTS.md)\n"
      "            --io-max-retries R --io-timeout-us U --io-backoff-us U\n"
      "            (retry/degraded-mode policy; see FAULTS.md)\n"
      "            --replication-factor R --write-quorum Q\n"
      "            --updates-per-iter N --edge-ops-per-iter N\n"
      "            --mutation-seed N --durability "
      "none|journaled|synced|quorum\n"
      "            --journal-apply-budget B --crash-at-group G "
      "--crash-seed N\n"
      "            (durability, replication & failover; FAULTS.md)\n"
      "            --corruption-rate F --crc-seed N --verify-reads\n"
      "            --verify-cache-fill --verify-cache-hit\n"
      "            --scrub-pages-per-iter P\n"
      "            (checksums & silent-corruption repair; INTEGRITY.md)]\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    Usage();
    return 2;
  }
  Flags flags(argc, argv, 2);
  std::string cmd = argv[1];
  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "info") return CmdInfo(flags);
  if (cmd == "run") return CmdRun(flags);
  if (cmd == "report") return CmdReport(flags);
  Usage();
  return 2;
}
