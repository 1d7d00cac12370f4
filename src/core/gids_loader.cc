#include "core/gids_loader.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/check.h"
#include "core/presample.h"
#include "obs/pool_metrics.h"
#include "obs/workspace_metrics.h"

namespace gids::core {

Status GidsOptions::Validate(int n_ssd) const {
  auto bad = [](const std::string& msg) {
    return Status::InvalidArgument(msg);
  };
  if (window_depth < 0) return bad("window_depth must be >= 0");
  if (prefetch_depth != 0) {
    return bad("prefetch_depth was removed; it must be 0");
  }
  if (max_merged_iterations < 1) {
    return bad("max_merged_iterations must be >= 1");
  }
  for (int d : offline_devices) {
    if (d < 0 || d >= n_ssd) {
      return bad("offline device " + std::to_string(d) + " is not in [0, " +
                 std::to_string(n_ssd) + ")");
    }
  }
  const int max_factor = std::min(n_ssd, storage::ReplicaSet::kMaxReplicas);
  if (replication_factor < 1 || replication_factor > max_factor) {
    return bad("replication_factor " + std::to_string(replication_factor) +
               " is not in [1, " + std::to_string(max_factor) +
               "] (at most n_ssd and " +
               std::to_string(storage::ReplicaSet::kMaxReplicas) + ")");
  }
  if (ReplicaOptions::enabled() &&
      (write_quorum < 0 || write_quorum > replication_factor)) {
    return bad("write_quorum " + std::to_string(write_quorum) +
               " is not in [0, replication_factor]");
  }
  storage::DurabilityLevel level;
  if (!storage::ParseDurabilityLevel(durability, &level)) {
    return bad("unknown durability '" + durability +
               "' (none, journaled, synced, quorum)");
  }
  if (crash_at_group >= 0 && !MutationStreamOptions::enabled()) {
    return bad("crash_at_group needs a mutation stream "
               "(updates_per_iter or edge_ops_per_iter > 0)");
  }
  return Status::OK();
}

GidsLoader::GidsLoader(const graph::Dataset* dataset,
                       sampling::Sampler* sampler,
                       sampling::SeedIterator* seeds,
                       const sim::SystemModel* system, GidsOptions options)
    : dataset_(dataset),
      sampler_(sampler),
      seeds_(seeds),
      system_(system),
      options_(std::move(options)) {
  GIDS_CHECK(dataset_ != nullptr);
  GIDS_CHECK(sampler_ != nullptr);
  GIDS_CHECK(seeds_ != nullptr);
  GIDS_CHECK(system_ != nullptr);

  // The workspace pool is process-wide; the flag is the escape hatch that
  // turns every acquire into plain malloc/free (bit-identical results).
  WorkspacePool::Default().set_enabled(options_.workspace_pool);

  const graph::FeatureStore& fs = dataset_->features;
  const sim::SystemConfig& cfg = system_->config();
  GIDS_CHECK_OK(options_.Validate(cfg.n_ssd));

  // The journaled write path's generator (FAULTS.md "Durability &
  // failover"). Its applied-version table is this loader's record of
  // every applied row update: the block device and the CPU buffer serve
  // each row at its version, so no rewritten byte is stored.
  const bool mutating = options_.MutationStreamOptions::enabled();
  if (mutating) mutations_ = std::make_unique<MutationStream>(&fs, options_);
  const std::span<const uint64_t> versions =
      mutating ? mutations_->applied_versions() : std::span<const uint64_t>();

  // Feature data lives on the SSD array; the synthetic block device
  // regenerates any page's ground-truth bytes on demand.
  auto device = std::make_unique<storage::FunctionBlockDevice>(
      fs.num_pages(), fs.page_bytes(),
      [&fs, versions](uint64_t lba, std::span<std::byte> out) {
        fs.FillPage(lba, out, versions);
      });
  storage_ = std::make_unique<storage::StorageArray>(std::move(device),
                                                     cfg.ssd, cfg.n_ssd);
  storage::RetryPolicy retry;
  retry.max_retries = options_.io_max_retries;
  retry.backoff_initial_ns = options_.io_backoff_ns;
  retry.timeout_ns = options_.io_timeout_ns;
  storage_->EnableFaultInjection(options_, retry);
  storage_->EnableIntegrity(options_);

  // Durability & replication (FAULTS.md "Durability & failover"). Order
  // matters: replication before the journal (fan-out follows the replica
  // set), both before metric binding (the journal/replica series exist
  // only when enabled, keeping defaults-off metric output identical).
  const bool replicated = options_.ReplicaOptions::enabled();
  if (replicated) storage_->EnableReplication(options_);
  if (mutating || replicated) {
    storage::JournalOptions jopt;  // Validate accepted the level's name
    storage::ParseDurabilityLevel(options_.durability, &jopt.durability);
    storage_->EnableJournal(jopt);
  }

  // Replacement/admission policy (CACHING.md). A shared instance is used
  // as-is (the sharing host already seeded its ranking); otherwise the
  // loader owns one of the configured kind.
  if (options_.shared_cache_policy != nullptr) {
    policy_ = options_.shared_cache_policy;
  } else {
    owned_policy_ = storage::MakeCachePolicy(options_.cache_policy);
    policy_ = owned_policy_.get();
  }

  uint64_t cache_bytes = options_.gpu_cache_bytes != 0
                             ? options_.gpu_cache_bytes
                             : cfg.scaled_gpu_cache_bytes();
  cache_ = std::make_unique<storage::SoftwareCache>(
      cache_bytes, fs.page_bytes(), fs.num_pages(), options_.seed ^ 0xcac4e,
      /*store_payloads=*/!options_.counting_mode, options_.cache_shards,
      policy_);
  if (options_.verify_cache_fill || options_.verify_cache_hit ||
      options_.scrub_pages_per_iter > 0) {
    cache_->EnableIntegrity(&storage_->checksummer(),
                            options_.verify_cache_fill,
                            options_.verify_cache_hit);
  }

  if (options_.host_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.host_threads);
  }

  // Seed an owned presample policy: its pass runs even without a CPU
  // buffer, because the admission priorities need it.
  if (owned_policy_ != nullptr &&
      policy_->kind() == storage::CachePolicyKind::kPresample) {
    SeedCachePolicy(policy_, *dataset_, *sampler_, seeds_->batch_size(),
                    options_.presample_seed, options_.presample_iterations,
                    &live_freq_);
    presample_live_rerank_ = options_.presample_rerank_groups > 0 &&
                             policy_->ProvidesHotRanking();
  }

  if (options_.use_cpu_buffer) {
    uint64_t buffer_bytes = static_cast<uint64_t>(
        options_.cpu_buffer_fraction * static_cast<double>(fs.total_bytes()));
    if (options_.hot_node_order != nullptr) {
      uint64_t budget_nodes =
          std::min<uint64_t>(buffer_bytes / fs.feature_bytes_per_node(),
                             options_.hot_node_order->size());
      std::vector<graph::NodeId> pinned(
          options_.hot_node_order->begin(),
          options_.hot_node_order->begin() + budget_nodes);
      cpu_buffer_ = std::make_unique<ConstantCpuBuffer>(
          ConstantCpuBuffer::FromNodeSet(fs, pinned));
    } else if (policy_->ProvidesHotRanking()) {
      // Policy-ranked residency: a presample policy's observed-frequency
      // ranking, owned or shared.
      cpu_buffer_ = std::make_unique<ConstantCpuBuffer>(
          ConstantCpuBuffer::FromRanking(fs, policy_->HotNodeRanking(),
                                         buffer_bytes));
    } else {
      cpu_buffer_ = std::make_unique<ConstantCpuBuffer>(
          ConstantCpuBuffer::Build(dataset_->graph, fs, buffer_bytes,
                                   options_.hot_metric,
                                   options_.seed ^ 0xb0f));
    }
    cpu_buffer_->ServeVersions(versions);
  }
  gatherer_ = std::make_unique<storage::FeatureGatherer>(
      &fs, storage_.get(), cache_.get(), cpu_buffer_.get(),
      options_.coalesce_pages);
  if (options_.use_window_buffering) {
    window_ = std::make_unique<WindowBuffer>(cache_.get(), &fs,
                                             cpu_buffer_.get());
    lookahead_ = options_.window_depth;
  }
  StorageAccessAccumulator::Params acc_params;
  acc_params.target_fraction = options_.accumulator_target;
  // T_i spans "the beginning of feature aggregation until the first data
  // is fetched from the SSD" (§3.2): kernel launch plus one device
  // latency. Including the latency is what makes the threshold scale with
  // SSD latency — high-latency SSDs demand more merged iterations.
  acc_params.model.initial_ns =
      cfg.gpu.kernel_launch_ns + cfg.ssd.read_latency_ns;
  acc_params.model.termination_ns = cfg.gpu.kernel_termination_ns;
  acc_params.model.n_ssd = cfg.n_ssd;
  accumulator_ =
      std::make_unique<StorageAccessAccumulator>(cfg.ssd, acc_params);

  if (options_.metrics != nullptr || options_.trace != nullptr ||
      options_.timeline != nullptr || options_.exemplars != nullptr ||
      options_.failover_exemplars != nullptr) {
    observer_ = std::make_unique<loaders::LoaderObserver>(
        options_.metrics, options_.trace, options_.display_name,
        options_.timeline, options_.exemplars, options_.failover_exemplars);
  }
  if (options_.metrics != nullptr) {
    obs::MetricRegistry* reg = options_.metrics;
    const obs::Labels& labels = observer_->labels();
    cache_->BindMetrics(reg, labels);
    policy_->BindMetrics(reg, labels);
    storage_->BindMetrics(reg, labels,
                          /*attribution_series=*/options_.timeline != nullptr ||
                              options_.exemplars != nullptr);
    if (cpu_buffer_ != nullptr) cpu_buffer_->BindMetrics(reg, labels);
    if (window_ != nullptr) window_->BindMetrics(reg, labels);
    groups_total_ = reg->GetCounter("gids_accumulator_groups_total", labels);
    merged_group_hist_ =
        reg->GetHistogram("gids_loader_merged_group_size", labels);
    threshold_gauge_ = reg->GetGauge("gids_accumulator_threshold", labels);
    window_depth_gauge_ = reg->GetGauge("gids_window_depth", labels);
    if (pool_ != nullptr) {
      pool_metrics_binding_ = obs::BindThreadPoolMetrics(*pool_, reg, labels);
    }
    ws_metrics_binding_ =
        obs::BindWorkspacePoolMetrics(WorkspacePool::Default(), reg, labels);
    using obs::MetricType;
    reg->RegisterCallback("gids_scrub_pages_total", labels,
                          MetricType::kCounter, [this] {
                            return static_cast<double>(scrub_pages_total_);
                          });
    reg->RegisterCallback("gids_scrub_errors_total", labels,
                          MetricType::kCounter, [this] {
                            return static_cast<double>(scrub_errors_total_);
                          });
    reg->RegisterCallback("gids_scrub_ns_total", labels, MetricType::kCounter,
                          [this] {
                            return static_cast<double>(scrub_ns_total_);
                          });
    reg->RegisterCallback(
        "gids_gather_coalesced_total", labels, MetricType::kCounter, [this] {
          return static_cast<double>(gather_coalesced_total_);
        });
    // Fraction of page-granular demand folded away by coalescing: 0 with
    // the flag off, approaches 1 as batches grow more duplicate-heavy.
    reg->RegisterCallback(
        "gids_gather_dedup_ratio", labels, MetricType::kGauge, [this] {
          double requests = static_cast<double>(gather_requests_total_);
          return requests > 0
                     ? static_cast<double>(gather_coalesced_total_) / requests
                     : 0.0;
        });
    if (mutations_ != nullptr) {
      // Mutation-stream series exist only with the journaled write path
      // on, like the storage array's journal series — defaults-off metric
      // output stays identical.
      reg->RegisterCallback("gids_mutations_submitted_total", labels,
                            MetricType::kCounter, [this] {
                              return static_cast<double>(
                                  mutations_->submitted_records());
                            });
      reg->RegisterCallback(
          "gids_mutations_applied_total", labels, MetricType::kCounter,
          [this] {
            return static_cast<double>(mutations_->feature_updates_applied() +
                                       mutations_->edge_inserts_applied() +
                                       mutations_->edge_deletes_applied());
          });
    }
  }
}

GidsLoader::~GidsLoader() {
  // Join the sample batch Next() left in flight before the members it
  // writes are destroyed (an exception it holds is a CHECK failure).
  ahead_.job = ThreadPool::Batch();
  if (options_.metrics != nullptr && observer_ != nullptr) {
    // The registry outlives the loader, but the pull-style callbacks bound
    // above read members that are about to be destroyed (including the
    // thread pool). Materialize their final values so a post-destruction
    // Snapshot() reads frozen numbers instead of calling through dangling
    // pointers.
    options_.metrics->UnbindAll(observer_->labels());
  }
  // Freeze before the pool they read is destroyed (UnbindAll above already
  // froze them when an observer exists; these are idempotent).
  pool_metrics_binding_.Unbind();
  ws_metrics_binding_.Unbind();
  pool_.reset();
}

void GidsLoader::Recycle(loaders::LoaderBatch&& batch) {
  // Bounded so a caller that recycles without consuming can't grow the
  // banks without limit; the steady state holds at most one group's worth.
  constexpr size_t kMaxBanked = 256;
  batch.batch.Reset();
  batch.features.clear();
  if (batch_free_.size() < kMaxBanked) {
    batch_free_.push_back(std::move(batch.batch));
  }
  if (features_free_.size() < kMaxBanked) {
    features_free_.push_back(std::move(batch.features));
  }
}

GidsLoader::Pending GidsLoader::NextPending() {
  // Reuse a parked Pending (seeds + block capacity) when one exists;
  // otherwise adopt a recycled MiniBatch so its blocks seed the new one.
  Pending p;
  if (!pending_free_.empty()) {
    p = std::move(pending_free_.back());
    pending_free_.pop_back();
    p.registered = false;
  }
  if (p.batch.blocks.empty() && !batch_free_.empty()) {
    // A parked Pending's batch was moved into a LoaderBatch; its block
    // storage comes back through Recycle().
    p.batch = std::move(batch_free_.back());
    batch_free_.pop_back();
  }
  p.iteration = next_sample_iteration_++;
  seeds_->NextBatchInto(p.seeds);
  return p;
}

void GidsLoader::SampleOne(Pending& p) const {
  sampler_->SampleAtInto(p.seeds, p.iteration, &p.batch);
  // Per-call workspace (not a member): SampleOne runs concurrently.
  Workspace<uint64_t> layer_edges;
  p.batch.LayerEdgeCountsInto(layer_edges);
  p.sampling_ns = system_->gpu().SamplingTime(
      layer_edges.data(), static_cast<int>(layer_edges.size()),
      dataset_->graph.structure_bytes());
}

void GidsLoader::JoinSampleBatch() {
  if (ahead_.items.empty()) return;
  // A sampler exception escapes with the items still here and no active
  // job, so the next call samples them all again: a half-sampled
  // iteration never reaches pending_.
  if (ahead_.job.active()) {
    ahead_.job.Join();
  } else if (pool_ != nullptr && sampler_->concurrent_safe() &&
             ahead_.items.size() > 1) {
    // Every iteration draws from its own RNG stream, so iterations sample
    // concurrently without perturbing any iteration's batch.
    pool_->ParallelFor(ahead_.items.size(),
                       [this](size_t i) { SampleOne(ahead_.items[i]); });
  } else {
    for (Pending& p : ahead_.items) SampleOne(p);
  }
  for (Pending& p : ahead_.items) pending_.push_back(std::move(p));
  ahead_.items.clear();
}

void GidsLoader::EnsureSampledAhead(size_t count) {
  if (pending_.size() < count) JoinSampleBatch();
  if (pending_.size() < count) {
    // Nothing is in flight now: draw the missing iterations and sample
    // them here, through ahead_ so none reaches pending_ unsampled.
    while (pending_.size() + ahead_.items.size() < count) {
      ahead_.items.push_back(NextPending());
    }
    JoinSampleBatch();
  }
  peak_lookahead_ = std::max(peak_lookahead_, pending_.size());
}

void GidsLoader::LaunchSampleBatch(size_t group, size_t lookahead) {
  // One batch in flight, launched while one pending iteration beyond the
  // window is still left: the batch then overlaps this gather and the
  // next, and at most group + lookahead + threads + 1 iterations are ever
  // pending or in flight.
  if (pool_ == nullptr || !sampler_->concurrent_safe() ||
      !ahead_.items.empty() || pending_.size() > group + lookahead + 1) {
    return;
  }
  // One iteration per worker: all are claimed at once, so the joiner
  // rarely has one left to sample itself.
  const size_t batch = pool_->num_threads();
  for (size_t i = 0; i < batch; ++i) ahead_.items.push_back(NextPending());
  peak_lookahead_ =
      std::max(peak_lookahead_, pending_.size() + ahead_.items.size());
  // items is not resized until the join, so the tasks' references hold.
  ahead_.job = pool_->Start(
      batch, [this](size_t i) { SampleOne(ahead_.items[i]); });
}

void GidsLoader::RegisterWindow(size_t count) {
  if (window_ == nullptr) return;
  for (size_t i = 0; i < count && i < pending_.size(); ++i) {
    if (!pending_[i].registered) {
      window_->Register(pending_[i].batch);
      pending_[i].registered = true;
    }
  }
}

Status GidsLoader::PrepareGroupBatches() {
  const graph::FeatureStore& fs = dataset_->features;
  const double pages_per_node = fs.PagesPerNode();

  // Pin the storage array's virtual clock to the preparation clock — the
  // sum of all previously prepared groups' e2e — so offline_at_ns onsets
  // and every replica-health decision are pure functions of the group
  // prefix, never of wall time or call interleaving.
  storage_->AdvanceClock(prep_clock_ns_);

  // --- Accumulator: choose how many iterations to merge so the group's
  // page accesses exceed the (redirect-adjusted) concurrency threshold.
  size_t group = 1;
  if (options_.use_accumulator) {
    const uint64_t threshold = accumulator_->CurrentThreshold();
    uint64_t est_pages = 0;
    group = 0;
    while (group < options_.max_merged_iterations) {
      EnsureSampledAhead(group + 1);
      est_pages += static_cast<uint64_t>(std::llround(
          pages_per_node *
          static_cast<double>(pending_[group].batch.num_input_nodes())));
      ++group;
      if (est_pages >= threshold) break;
    }
  }
  const size_t lookahead = static_cast<size_t>(lookahead_);
  EnsureSampledAhead(group + lookahead);
  RegisterWindow(group + lookahead);
  // The pool samples the next look-ahead batch while this thread runs the
  // rest of the group, the gather above all. Sampling further ahead
  // changes no batch: each iteration has its own RNG stream, seeds are
  // drawn in order, and the sampler's graph is never mutated (edge deltas
  // are journaled, MutationStream).
  LaunchSampleBatch(group, lookahead);

  // --- Journaled write path (FAULTS.md "Durability & failover"): before
  // the group's gathers, drive the mutation stream one group forward —
  // crash/recover/resubmit at the configured group boundary, then
  // submit -> sync -> apply. Runs inside the group preparation, so the
  // journal's entire history is a pure function of the group prefix and
  // the seeds, and gathers always see an exact LSN-prefix of the
  // mutation stream.
  TimeNs group_mutation_ns = 0;
  if (mutations_ != nullptr) {
    const uint64_t mut_ns_before =
        storage_->journal()->counters().mutation_ns.load(
            std::memory_order_relaxed);
    if (!crash_done_ && options_.crash_at_group >= 0 &&
        groups_prepared_ ==
            static_cast<uint64_t>(options_.crash_at_group)) {
      crash_done_ = true;
      storage_->CrashJournal(options_.crash_seed);
      storage_->RecoverJournal();
      mutations_->ResubmitMissing(storage_.get());
    }
    const uint64_t through_iter = pending_[group - 1].iteration + 1;
    mutations_->SubmitThrough(storage_.get(), through_iter);
    storage_->SyncJournals();
    storage_->ApplyJournal(
        options_.journal_apply_budget,
        [this](const storage::MutationRecord& rec,
               std::span<const uint64_t> pages) {
          // Applied records change page ground truth: advance the row's
          // version, which the device and the CPU buffer serve, and drop
          // stale cache lines, so every service path serves (and
          // verifies against) the new version.
          mutations_->OnApplied(rec);
          for (uint64_t page : pages) cache_->Invalidate(page);
        });
    group_mutation_ns = static_cast<TimeNs>(
        storage_->journal()->counters().mutation_ns.load(
            std::memory_order_relaxed) -
        mut_ns_before);
  }

  // --- Gather every merged iteration (conceptually one aggregation
  // kernel execution spanning the group) into ready_, rebuilt from
  // fresh batches in the storage the last group left behind.
  ready_.clear();
  ready_next_ = 0;
  ready_.resize(group);
  // Rebuild each batch's feature storage from the recycle bank (its
  // capacity survives the round trip through the consumer).
  if (!options_.counting_mode) {
    for (size_t i = 0; i < group && !features_free_.empty(); ++i) {
      ready_[i].features = std::move(features_free_.back());
      features_free_.pop_back();
    }
  }
  TimeNs group_sampling = 0;
  TimeNs group_training = 0;
  for (size_t i = 0; i < group; ++i) {
    Pending& p = pending_[i];
    loaders::IterationStats& st = ready_[i].stats;
    st.sampled_edges = p.batch.total_edges();
    st.input_nodes = p.batch.num_input_nodes();
    st.sampling_ns = p.sampling_ns;
    st.merged_group = static_cast<uint32_t>(group);
    st.training_ns = system_->gpu().TrainTime(st.input_nodes);
    group_sampling += st.sampling_ns;
    group_training += st.training_ns;
  }

  // kPresample live re-ranking: fold the group's batch composition into
  // the cumulative frequency table and re-ingest on the configured
  // cadence. Group-scoped (like everything in this function), so the
  // re-rank points are deterministic at any host_threads.
  if (presample_live_rerank_) {
    live_freq_.resize(dataset_->graph.num_nodes());
    for (size_t i = 0; i < group; ++i) {
      for (graph::NodeId v : pending_[i].batch.input_nodes()) {
        ++live_freq_[v];
      }
    }
    if (++groups_since_rerank_ >= options_.presample_rerank_groups) {
      groups_since_rerank_ = 0;
      policy_->IngestNodeFrequencies(live_freq_.span(), fs);
    }
  }

  // One GatherGroup call per merged group. With coalesce_pages, repeats
  // across iterations collapse to one round-trip per distinct page;
  // without it the call equals one gather per iteration. Per-slice counts
  // keep per-iteration stats exact, and the receipt bills exactly this
  // call's reads.
  Workspace<storage::GatherSlice>& slices = gather_slices_;
  Workspace<storage::FeatureGatherCounts>& slice_counts = slice_counts_;
  slices.clear();
  slices.resize(group);
  slice_counts.clear();
  slice_counts.resize(group);
  for (size_t i = 0; i < group; ++i) {
    const auto& nodes = pending_[i].batch.input_nodes();
    if (options_.counting_mode) {
      slices[i] = storage::GatherSlice{nodes, {}};
    } else {
      ready_[i].features.resize(nodes.size() * fs.feature_dim());
      slices[i] =
          storage::GatherSlice{nodes, std::span<float>(ready_[i].features)};
    }
  }
  storage::GatherReceipt receipt;
  if (Status st = gatherer_->GatherGroup(
          std::span<const storage::GatherSlice>(slices.data(), slices.size()),
          std::span<storage::FeatureGatherCounts>(slice_counts.data(),
                                                  slice_counts.size()),
          &receipt);
      !st.ok()) {
    ready_.clear();
    return st;
  }
  storage::FeatureGatherCounts group_counts;
  for (size_t i = 0; i < group; ++i) {
    ready_[i].stats.gather = slice_counts[i];
    group_counts.Add(slice_counts[i]);
    ready_[i].batch = std::move(pending_[i].batch);
    // Park consumed Pendings so their seeds vectors keep their capacity
    // (the batch was moved into the LoaderBatch above).
    if (pending_free_.size() < options_.max_merged_iterations * 2) {
      pending_free_.push_back(std::move(pending_[i]));
    }
  }
  pending_.erase(pending_.begin(), pending_.begin() + group);

  // Failover attribution (FAULTS.md "Durability & failover") is
  // group-scoped like the kernel, so the group's first iteration carries
  // it and per-run sums stay exact.
  loaders::IterationStats& st0 = ready_[0].stats;
  st0.failovers = receipt.failovers;
  st0.failover_device = receipt.failover_device;
  st0.failover_replica = receipt.failover_replica;

  // --- Timing: the group is one aggregation kernel (group == 1 without
  // the accumulator). The accumulator bounds the in-flight window; the
  // journaled write step extends the kernel like a storage phase.
  const uint64_t outstanding_cap =
      options_.use_accumulator
          ? std::min(accumulator_->CurrentThreshold(),
                     storage_->queue_capacity())
          : storage_->queue_capacity();
  const storage::GatherCost cost =
      storage::CostGather(*system_, group_counts, fs.page_bytes(), receipt,
                          outstanding_cap, group_mutation_ns, group);
  // With the accumulator, preparation of future iterations and training
  // of earlier ones overlap the storage waits while GPU compute serializes
  // on the SMs; the BaM baseline runs sampling, kernel and training back
  // to back.
  const TimeNs g = static_cast<TimeNs>(group);
  const TimeNs group_e2e =
      options_.use_accumulator
          ? std::max(cost.kernel_ns, group_sampling + group_training)
          : group_sampling + cost.kernel_ns + group_training;
  for (size_t i = 0; i < group; ++i) {
    loaders::IterationStats& st = ready_[i].stats;
    st.aggregation_ns = cost.kernel_ns / g;
    st.e2e_ns = group_e2e / g;
    st.effective_bandwidth_bps = cost.timing.effective_bandwidth_bps;
    st.pcie_ingress_bps = cost.timing.pcie_ingress_bps;
    if (!options_.use_accumulator) {
      // Without decoupled stages the link idles while the sampling kernel
      // runs, so the observed ingress rate averages over sampling +
      // aggregation (Fig. 9's no-accumulator bars).
      const TimeNs prep = st.sampling_ns + st.aggregation_ns;
      st.pcie_ingress_bps =
          prep > 0 ? static_cast<double>(cost.timing.pcie_ingress_bytes) /
                         NsToSec(prep)
                   : 0.0;
    }
    // Cost ledger (OBSERVABILITY.md): exact integer shares of the
    // kernel-path components; the signed overlap credit makes
    // Sum() == e2e_ns exact.
    obs::IterationLedger& led = st.ledger;
    led = cost.MemberLedger(i);
    led.sampling_ns = st.sampling_ns;
    led.training_ns = st.training_ns;
    led.overlap_credit_ns = led.PositiveSum() - st.e2e_ns;
  }

  // --- Background scrubber (INTEGRITY.md): between iterations, walk a
  // budget of resident cache lines (and pinned CPU-buffer rows) and
  // re-verify their checksums, quarantining any line that rotted while
  // resident. Runs inside the group preparation, so sweep order — and
  // therefore every quarantine decision — is deterministic at any
  // host_threads value. The sweep overlaps training in wall time and
  // is accounted separately in virtual time (it does not extend e2e).
  if (options_.scrub_pages_per_iter > 0) {
    const uint64_t quota =
        static_cast<uint64_t>(options_.scrub_pages_per_iter) * group;
    const uint32_t shards = cache_->num_shards();
    const uint64_t per_shard = (quota + shards - 1) / shards;
    Workspace<storage::SoftwareCache::ScrubResult>& shard_res =
        scrub_results_;
    shard_res.clear();
    shard_res.resize(shards);
    auto scrub_shard = [&](size_t s) {
      shard_res[s] = cache_->ScrubShard(static_cast<uint32_t>(s), per_shard);
    };
    if (pool_ != nullptr) {
      pool_->ParallelFor(shards, scrub_shard);
    } else {
      for (uint32_t s = 0; s < shards; ++s) scrub_shard(s);
    }
    uint64_t scanned = 0;
    uint64_t errors = 0;
    for (const auto& r : shard_res) {
      scanned += r.scanned;
      errors += r.errors;
    }
    if (cpu_buffer_ != nullptr) {
      ConstantCpuBuffer::ScrubResult rr =
          cpu_buffer_->ScrubRows(storage_->checksummer(), quota);
      scanned += rr.rows;
      errors += rr.errors;
    }
    scrub_pages_total_.fetch_add(scanned, std::memory_order_relaxed);
    scrub_errors_total_.fetch_add(errors, std::memory_order_relaxed);
    scrub_ns_total_.fetch_add(scanned * options_.crc_verify_ns,
                              std::memory_order_relaxed);
  }

  gather_coalesced_total_.fetch_add(group_counts.coalesced_requests,
                                    std::memory_order_relaxed);
  gather_requests_total_.fetch_add(group_counts.total_page_requests(),
                                   std::memory_order_relaxed);

  accumulator_->Observe(group_counts);

  if (groups_total_ != nullptr) {
    groups_total_->Inc();
    merged_group_hist_->Observe(group);
    threshold_gauge_->Set(
        static_cast<double>(accumulator_->CurrentThreshold()));
    window_depth_gauge_->Set(static_cast<double>(lookahead_));
  }
  if (observer_ != nullptr && observer_->trace() != nullptr) {
    // Groups are prepared in consumption order, each once its predecessor
    // is consumed, so the observer's clock sits at the virtual-time start
    // of this group's first iteration.
    observer_->Instant(
        "accumulator_group_flush",
        {{"merged_iterations", static_cast<double>(group)},
         {"page_requests",
          static_cast<double>(group_counts.total_page_requests())},
         {"threshold",
          static_cast<double>(accumulator_->CurrentThreshold())}});
    uint64_t evictions = cache_->stats().evictions;
    if (evictions > traced_evictions_) {
      observer_->Instant(
          "cache_evictions",
          {{"count", static_cast<double>(evictions - traced_evictions_)},
           {"pinned_lines", static_cast<double>(cache_->pinned_lines())}});
    }
    traced_evictions_ = evictions;
  }

  // Advance the preparation clock past this group, so the next group's
  // storage decisions (offline onsets, replica health) happen at the
  // virtual instant this group's iterations end.
  for (const loaders::LoaderBatch& lb : ready_) {
    prep_clock_ns_ += lb.stats.e2e_ns;
  }
  ++groups_prepared_;
  return Status::OK();
}

StatusOr<loaders::LoaderBatch> GidsLoader::Next() {
  if (ready_next_ == ready_.size()) {
    GIDS_RETURN_IF_ERROR(PrepareGroupBatches());
  }
  loaders::LoaderBatch out = std::move(ready_[ready_next_++]);
  elapsed_ns_ += out.stats.e2e_ns;
  ++iterations_;
  if (observer_ != nullptr) observer_->RecordIteration(out.stats);
  return out;
}

}  // namespace gids::core
