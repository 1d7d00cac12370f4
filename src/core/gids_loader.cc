#include "core/gids_loader.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "core/presample.h"
#include "obs/pool_metrics.h"
#include "obs/workspace_metrics.h"

namespace gids::core {

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
  GIDS_CHECK(options_.window_depth >= 0);
  GIDS_CHECK(options_.max_merged_iterations >= 1);

  // The workspace pool is process-wide; the flag is the escape hatch that
  // turns every acquire into plain malloc/free (bit-identical results).
  WorkspacePool::Default().set_enabled(options_.workspace_pool);

  const graph::FeatureStore& fs = dataset_->features;
  const sim::SystemConfig& cfg = system_->config();

  // Feature data lives on the SSD array; the synthetic block device
  // regenerates any page's ground-truth bytes on demand.
  auto device = std::make_unique<storage::FunctionBlockDevice>(
      fs.num_pages(), fs.page_bytes(),
      [&fs](uint64_t lba, std::span<std::byte> out) { fs.FillPage(lba, out); });
  storage_ = std::make_unique<storage::StorageArray>(
      std::move(device), cfg.ssd, cfg.n_ssd, options_.io_queues,
      options_.io_queue_depth);
  storage::FaultOptions faults;
  faults.fault_rate = options_.fault_rate;
  faults.fault_seed = options_.fault_seed;
  faults.latency_spike_rate = options_.latency_spike_rate;
  faults.latency_spike_ns = options_.latency_spike_ns;
  faults.stuck_queue_rate = options_.stuck_queue_rate;
  faults.offline_devices = options_.offline_devices;
  faults.offline_at_ns = options_.offline_at_ns;
  faults.corruption_rate = options_.corruption_rate;
  if (faults.enabled()) {
    for (int d : options_.offline_devices) {
      GIDS_CHECK(d >= 0 && d < cfg.n_ssd);
    }
    storage::RetryPolicy retry;
    retry.max_retries = options_.io_max_retries;
    retry.backoff_initial_ns = options_.io_backoff_ns;
    retry.timeout_ns = options_.io_timeout_ns;
    storage_->EnableFaultInjection(faults, retry);
  }
  storage::IntegrityOptions integrity;
  integrity.verify_reads = options_.verify_reads;
  integrity.verify_cache_fill = options_.verify_cache_fill;
  integrity.verify_cache_hit = options_.verify_cache_hit;
  integrity.crc_seed = options_.crc_seed;
  integrity.crc_verify_ns = options_.crc_verify_ns;
  storage_->EnableIntegrity(integrity);

  // Durability & replication (FAULTS.md "Durability & failover"). Order
  // matters: replication before the journal (fan-out follows the replica
  // set), both before metric binding (the journal/replica series exist
  // only when enabled, keeping defaults-off metric output identical).
  GIDS_CHECK(options_.replication_factor >= 1 &&
             options_.replication_factor <= cfg.n_ssd);
  if (options_.replication_factor > 1) {
    storage::ReplicaOptions repl;
    repl.replication_factor = options_.replication_factor;
    repl.write_quorum = options_.write_quorum;
    GIDS_CHECK(repl.write_quorum >= 0 &&
               repl.write_quorum <= repl.replication_factor);
    storage_->EnableReplication(repl);
  }
  MutationStreamOptions mut;
  mut.updates_per_iter = options_.updates_per_iter;
  mut.edge_ops_per_iter = options_.edge_ops_per_iter;
  mut.seed = options_.mutation_seed;
  if (mut.enabled() || options_.replication_factor > 1) {
    storage::JournalOptions jopt;
    GIDS_CHECK(
        storage::ParseDurabilityLevel(options_.durability, &jopt.durability));
    storage_->EnableJournal(jopt);
  }
  if (mut.enabled()) {
    mutations_ = std::make_unique<MutationStream>(&fs, mut);
  } else {
    GIDS_CHECK(options_.crash_at_group < 0);
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
      cache_bytes, fs.page_bytes(), options_.seed ^ 0xcac4e,
      /*store_payloads=*/!options_.counting_mode, options_.cache_shards,
      policy_);
  if (integrity.verify_cache_fill || integrity.verify_cache_hit ||
      options_.scrub_pages_per_iter > 0) {
    cache_->EnableIntegrity(&storage_->checksummer(),
                            integrity.verify_cache_fill,
                            integrity.verify_cache_hit);
  }
  bam_ = std::make_unique<storage::BamArray>(storage_.get(), cache_.get());

  if (options_.host_threads > 1 || options_.prefetch_depth > 0) {
    pool_ = std::make_unique<ThreadPool>(
        std::max<uint32_t>(1, options_.host_threads));
  }

  // Seed the owned policy's ranking. kPresample always runs its pass (the
  // admission priorities need it even without a CPU buffer); kPageRankHot
  // only computes the structural ranking when the buffer will consume it
  // (an explicit hot_node_order supersedes it, exactly as before).
  if (owned_policy_ != nullptr) {
    if (policy_->kind() == storage::CachePolicyKind::kPresample) {
      SeedCachePolicy(policy_, *dataset_, *sampler_, seeds_->batch_size(),
                      options_.hot_metric, options_.seed ^ 0xb0f,
                      options_.presample_seed, options_.presample_iterations,
                      &live_freq_);
      presample_live_rerank_ = options_.presample_rerank_groups > 0 &&
                               policy_->ProvidesHotRanking();
    } else if (policy_->kind() == storage::CachePolicyKind::kPageRankHot &&
               options_.use_cpu_buffer &&
               options_.hot_node_order == nullptr) {
      SeedCachePolicy(policy_, *dataset_, *sampler_, seeds_->batch_size(),
                      options_.hot_metric, options_.seed ^ 0xb0f,
                      options_.presample_seed, 0, nullptr);
    }
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
      // Policy-ranked residency: the structural ranking for kPageRankHot
      // (bit-identical to the Build path below), the observed-frequency
      // ranking for kPresample, or whatever a shared policy was seeded
      // with.
      cpu_buffer_ = std::make_unique<ConstantCpuBuffer>(
          ConstantCpuBuffer::FromRanking(fs, policy_->HotNodeRanking(),
                                         buffer_bytes));
    } else {
      cpu_buffer_ = std::make_unique<ConstantCpuBuffer>(
          ConstantCpuBuffer::Build(dataset_->graph, fs, buffer_bytes,
                                   options_.hot_metric,
                                   options_.seed ^ 0xb0f));
    }
  }
  gatherer_ = std::make_unique<storage::FeatureGatherer>(
      &fs, bam_.get(), cpu_buffer_.get(), pool_.get(),
      options_.coalesce_pages);
  if (options_.use_window_buffering) {
    window_ = std::make_unique<WindowBuffer>(cache_.get(), &fs,
                                             cpu_buffer_.get());
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
  {
    std::lock_guard<std::mutex> lock(stage_mu_);
    stopping_ = true;
  }
  if (pool_ != nullptr) {
    // Drain the prefetch task before members it touches are destroyed.
    try {
      pool_->Wait();
    } catch (...) {
      // A throwing prefetch already surfaced (or will never be consumed);
      // destruction must not rethrow.
    }
  }
  if (options_.metrics != nullptr && observer_ != nullptr) {
    // The registry outlives the loader, but the pull-style callbacks bound
    // above read members that are about to be destroyed (including the
    // drained-but-live thread pool). Materialize their final values so a
    // post-destruction Snapshot() reads frozen numbers instead of calling
    // through dangling pointers.
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
  std::lock_guard<std::mutex> lock(recycle_mu_);
  if (batch_free_.size() < kMaxBanked) {
    batch_free_.push_back(std::move(batch.batch));
  }
  if (features_free_.size() < kMaxBanked) {
    features_free_.push_back(std::move(batch.features));
  }
}

void GidsLoader::EnsureSampledAhead(size_t count) {
  // Seed batches are drawn serially: the seed iterator is the one stateful
  // input, and drawing in iteration order keeps the seed stream identical
  // to a serial loader's.
  while (pending_.size() < count) {
    // Reuse a parked Pending (seeds + block capacity) when one exists;
    // otherwise adopt a recycled MiniBatch so its blocks seed the new one.
    Pending p;
    if (!pending_free_.empty()) {
      p = std::move(pending_free_.back());
      pending_free_.pop_back();
      p.sampled = false;
      p.registered = false;
    }
    if (p.batch.blocks.empty()) {
      // A parked Pending's batch was moved into a LoaderBatch; its block
      // storage comes back through Recycle().
      std::lock_guard<std::mutex> lock(recycle_mu_);
      if (!batch_free_.empty()) {
        p.batch = std::move(batch_free_.back());
        batch_free_.pop_back();
      }
    }
    p.iteration = next_sample_iteration_++;
    seeds_->NextBatchInto(p.seeds);
    pending_.push_back(std::move(p));
  }

  sample_todo_.clear();
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (!pending_[i].sampled) sample_todo_.push_back(i);
  }
  if (sample_todo_.empty()) return;

  auto sample_one = [this](Pending& p) {
    sampler_->SampleAtInto(p.seeds, p.iteration, &p.batch);
    // Per-call workspace (not a member): sample_one runs concurrently.
    Workspace<uint64_t> layer_edges;
    p.batch.LayerEdgeCountsInto(layer_edges);
    p.sampling_ns = system_->gpu().SamplingTime(
        layer_edges.data(), static_cast<int>(layer_edges.size()),
        dataset_->graph.structure_bytes());
    p.sampled = true;
  };
  if (pool_ != nullptr && sampler_->concurrent_safe() &&
      sample_todo_.size() > 1) {
    // Every iteration draws from its own RNG stream, so the merged future
    // iterations (§3.2: independent by construction) sample concurrently
    // without perturbing any iteration's batch.
    pool_->ParallelFor(sample_todo_.size(), [&](size_t j) {
      sample_one(pending_[sample_todo_[j]]);
    });
  } else {
    for (size_t i : sample_todo_) sample_one(pending_[i]);
  }
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

StatusOr<std::vector<loaders::LoaderBatch>> GidsLoader::PrepareGroupBatches() {
  const graph::FeatureStore& fs = dataset_->features;
  const double pages_per_node = fs.PagesPerNode();

  // Pin the storage array's virtual clock to the preparation clock — the
  // sum of all previously prepared groups' e2e — so offline_at_ns onsets
  // and every replica-health decision are pure functions of the group
  // prefix, never of wall time or call interleaving.
  storage_->AdvanceClock(prep_clock_ns_);

  if (resolved_window_depth_ == 0 && options_.use_window_buffering) {
    if (options_.auto_window_depth) {
      EnsureSampledAhead(1);
      uint64_t minibatch_bytes =
          static_cast<uint64_t>(pages_per_node *
                                static_cast<double>(
                                    pending_[0].batch.num_input_nodes())) *
          fs.page_bytes();
      resolved_window_depth_ =
          AutoWindowDepth(cache_->capacity_lines() * fs.page_bytes(),
                          minibatch_bytes);
    } else {
      resolved_window_depth_ = options_.window_depth;
    }
  }

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
  size_t lookahead = options_.use_window_buffering
                         ? static_cast<size_t>(resolved_window_depth_)
                         : 0;
  EnsureSampledAhead(group + lookahead);
  RegisterWindow(group + lookahead);

  // --- Journaled write path (FAULTS.md "Durability & failover"): before
  // the group's gathers, drive the mutation stream one group forward —
  // crash/recover/resubmit at the configured group boundary, then
  // submit -> sync -> apply. Runs inside the single-flight preparation,
  // so the journal's entire history is a pure function of the group
  // prefix and the seeds, and gathers always see an exact LSN-prefix of
  // the mutation stream.
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
    mutations_through_iter_ = through_iter;
    storage_->SyncJournals();
    storage_->ApplyJournal(
        options_.journal_apply_budget,
        [this](const storage::MutationRecord& rec,
               std::span<const uint64_t> pages) {
          mutations_->OnApplied(rec);
          // Applied records change page ground truth: drop stale cache
          // lines and refresh the pinned CPU-buffer row so every service
          // path serves (and verifies against) the new version.
          for (uint64_t page : pages) cache_->Invalidate(page);
          if (rec.type == storage::MutationType::kFeatureUpdate &&
              cpu_buffer_ != nullptr &&
              cpu_buffer_->Contains(
                  static_cast<graph::NodeId>(rec.key))) {
            cpu_buffer_->OverrideRow(static_cast<graph::NodeId>(rec.key),
                                     rec.arg);
          }
        });
    group_mutation_ns = static_cast<TimeNs>(
        storage_->journal()->counters().mutation_ns.load(
            std::memory_order_relaxed) -
        mut_ns_before);
  }

  // --- Gather every merged iteration (conceptually one aggregation
  // kernel execution spanning the group).
  std::vector<loaders::LoaderBatch> group_batches(group);
  // Rebuild each batch's feature storage from the recycle bank (its
  // capacity survives the round trip through the consumer).
  if (!options_.counting_mode) {
    std::lock_guard<std::mutex> lock(recycle_mu_);
    for (size_t i = 0; i < group && !features_free_.empty(); ++i) {
      group_batches[i].features = std::move(features_free_.back());
      features_free_.pop_back();
    }
  }
  TimeNs group_sampling = 0;
  TimeNs group_training = 0;
  for (size_t i = 0; i < group; ++i) {
    Pending& p = pending_[i];
    loaders::IterationStats& st = group_batches[i].stats;
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
  // cadence. Single-flight (like everything in this function), so the
  // re-rank points are deterministic at any host_threads/prefetch_depth.
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
      group_batches[i].features.resize(nodes.size() * fs.feature_dim());
      slices[i] = storage::GatherSlice{
          nodes, std::span<float>(group_batches[i].features)};
    }
  }
  storage::GatherReceipt receipt;
  GIDS_RETURN_IF_ERROR(gatherer_->GatherGroup(
      std::span<const storage::GatherSlice>(slices.data(), slices.size()),
      std::span<storage::FeatureGatherCounts>(slice_counts.data(),
                                              slice_counts.size()),
      &receipt));
  storage::FeatureGatherCounts group_counts;
  for (size_t i = 0; i < group; ++i) {
    group_batches[i].stats.gather = slice_counts[i];
    group_counts.Add(slice_counts[i]);
    group_batches[i].batch = std::move(pending_[i].batch);
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
  loaders::IterationStats& st0 = group_batches[0].stats;
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
    loaders::IterationStats& st = group_batches[i].stats;
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
  // resident. Runs inside the single-flight group preparation, so sweep
  // order — and therefore every quarantine decision — is deterministic at
  // any host_threads value. The sweep overlaps training in wall time and
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
    window_depth_gauge_->Set(static_cast<double>(resolved_window_depth_));
  }
  if (observer_ != nullptr && observer_->trace() != nullptr) {
    std::lock_guard<std::mutex> obs_lock(obs_mu_);
    // Groups are prepared in consumption order (preparation is
    // single-flight), so the observer's clock sits at the virtual-time
    // start of this group's first unconsumed iteration.
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
  for (const loaders::LoaderBatch& lb : group_batches) {
    prep_clock_ns_ += lb.stats.e2e_ns;
  }
  ++groups_prepared_;

  return group_batches;
}

void GidsLoader::MaybeLaunchPrefetch() {
  if (options_.prefetch_depth == 0 || pool_ == nullptr) return;
  std::lock_guard<std::mutex> lock(stage_mu_);
  if (prefetch_running_ || stopping_) return;
  if (!prefetch_status_.ok()) return;
  if (staged_.size() >= options_.prefetch_depth) return;
  prefetch_running_ = true;
  pool_->Submit([this] { PrefetchTask(); });
}

void GidsLoader::PrefetchTask() {
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(stage_mu_);
      if (stopping_) {
        prefetch_running_ = false;
        stage_cv_.notify_all();
        return;
      }
    }
    auto result = PrepareGroupBatches();
    std::lock_guard<std::mutex> lock(stage_mu_);
    if (!result.ok()) {
      prefetch_status_ = result.status();
      prefetch_running_ = false;
      stage_cv_.notify_all();
      return;
    }
    staged_.push_back(std::move(*result));
    bool more = staged_.size() < options_.prefetch_depth && !stopping_;
    if (!more) prefetch_running_ = false;
    stage_cv_.notify_all();
    if (!more) return;
  }
}

StatusOr<loaders::LoaderBatch> GidsLoader::Next() {
  if (ready_.empty()) {
    {
      std::unique_lock<std::mutex> lock(stage_mu_);
      if (prefetch_running_ || !staged_.empty()) {
        stage_cv_.wait(lock, [this] {
          return !staged_.empty() || !prefetch_running_;
        });
      }
      if (!staged_.empty()) {
        for (loaders::LoaderBatch& lb : staged_.front()) {
          ready_.push_back(std::move(lb));
        }
        staged_.pop_front();
      } else if (!prefetch_status_.ok()) {
        Status s = prefetch_status_;
        prefetch_status_ = Status::OK();
        return s;
      }
    }
    if (ready_.empty()) {
      // No prefetch in flight (checked above), so inline preparation is
      // exclusive.
      auto group = PrepareGroupBatches();
      GIDS_RETURN_IF_ERROR(group.status());
      for (loaders::LoaderBatch& lb : *group) {
        ready_.push_back(std::move(lb));
      }
    }
  }
  MaybeLaunchPrefetch();
  loaders::LoaderBatch out = std::move(ready_.front());
  ready_.pop_front();
  elapsed_ns_ += out.stats.e2e_ns;
  ++iterations_;
  if (observer_ != nullptr) {
    std::lock_guard<std::mutex> obs_lock(obs_mu_);
    observer_->RecordIteration(out.stats);
  }
  return out;
}

}  // namespace gids::core
