#include "loaders/ginex_loader.h"

#include <algorithm>

#include "common/check.h"

namespace gids::loaders {

GinexLoader::GinexLoader(const graph::Dataset* dataset,
                         sampling::Sampler* sampler,
                         sampling::SeedIterator* seeds,
                         const sim::SystemModel* system,
                         GinexLoaderOptions options)
    : dataset_(dataset),
      sampler_(sampler),
      seeds_(seeds),
      system_(system),
      options_(options) {
  GIDS_CHECK(dataset_ != nullptr);
  GIDS_CHECK(sampler_ != nullptr);
  GIDS_CHECK(seeds_ != nullptr);
  GIDS_CHECK(system_ != nullptr);
  GIDS_CHECK(options_.superbatch_iterations > 0);

  uint64_t cpu_bytes = system_->config().scaled_cpu_memory_bytes();
  uint64_t structure = dataset_->structure_bytes();
  uint64_t page_bytes = dataset_->features.page_bytes();
  uint64_t cache_bytes =
      cpu_bytes > structure ? cpu_bytes - structure : page_bytes;
  cache_ = std::make_unique<BeladyCache>(
      std::max<uint64_t>(1, cache_bytes / page_bytes));

  if (options_.metrics != nullptr || options_.trace != nullptr ||
      options_.timeline != nullptr || options_.exemplars != nullptr) {
    observer_ = std::make_unique<LoaderObserver>(
        options_.metrics, options_.trace, std::string(name()),
        options_.timeline, options_.exemplars);
    if (options_.metrics != nullptr) {
      superbatches_total_ = options_.metrics->GetCounter(
          "gids_ginex_superbatches_total", observer_->labels());
      options_.metrics->RegisterCallback(
          "gids_belady_cache_resident_pages", observer_->labels(),
          obs::MetricType::kGauge,
          [this] { return static_cast<double>(cache_->resident_pages()); });
    }
  }
}

GinexLoader::~GinexLoader() {
  if (options_.metrics != nullptr && observer_ != nullptr) {
    options_.metrics->UnbindAll(observer_->labels());
  }
}

void GinexLoader::Recycle(LoaderBatch&& batch) {
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

void GinexLoader::PrepareSuperbatch() {
  const graph::FeatureStore& fs = dataset_->features;
  const uint32_t n = options_.superbatch_iterations;

  std::vector<LoaderBatch> batches(n);
  for (uint32_t i = 0; i < n && !batch_free_.empty(); ++i) {
    batches[i].batch = std::move(batch_free_.back());
    batch_free_.pop_back();
  }
  if (!options_.counting_mode) {
    for (uint32_t i = 0; i < n && !features_free_.empty(); ++i) {
      batches[i].features = std::move(features_free_.back());
      features_free_.pop_back();
    }
  }
  std::vector<std::vector<uint64_t>>& traces = traces_;
  if (traces.size() != n) traces.resize(n);
  for (auto& t : traces) t.clear();
  for (uint32_t i = 0; i < n; ++i) {
    seeds_->NextBatchInto(seed_scratch_);
    sampler_->SampleInto(seed_scratch_, &batches[i].batch);
    IterationStats& st = batches[i].stats;
    st.sampled_edges = batches[i].batch.total_edges();
    st.input_nodes = batches[i].batch.num_input_nodes();
    st.sampling_ns = system_->cpu().SamplingTime(
        st.sampled_edges, dataset_->graph.structure_bytes());
    for (graph::NodeId v : batches[i].batch.input_nodes()) {
      auto range = fs.PagesFor(v);
      for (uint64_t page = range.first; page <= range.last; ++page) {
        traces[i].push_back(page);
      }
    }
  }

  BeladyCache::SuperbatchResult cache_result =
      cache_->ProcessSuperbatch(traces);

  for (uint32_t i = 0; i < n; ++i) {
    LoaderBatch& lb = batches[i];
    IterationStats& st = lb.stats;
    uint64_t hits = cache_result.hits_per_iteration[i];
    uint64_t misses = cache_result.misses_per_iteration[i];
    st.gather.nodes = st.input_nodes;
    st.gather.cpu_buffer_hits = hits;  // served from the Belady CPU cache
    st.gather.storage_reads = misses;

    // Aggregation: async storage reads for misses, DRAM copies for hits.
    const sim::CpuModel& cpu = system_->cpu();
    TimeNs read_ns = cpu.AsyncReadTime(misses, system_->config().ssd,
                                       options_.async_queue_depth);
    TimeNs copy_ns = SecToNs(static_cast<double>(hits * fs.page_bytes()) /
                             cpu.spec().dram_gather_bps);
    st.aggregation_ns = read_ns + copy_ns;

    // Changeset (Belady order) precomputation runs on the CPU alongside
    // sampling; both are pipelined against aggregation.
    TimeNs changeset_ns = static_cast<TimeNs>(traces[i].size()) *
                          options_.changeset_ns_per_access;
    uint64_t batch_bytes = st.input_nodes * fs.feature_bytes_per_node();
    st.transfer_ns = system_->pcie().TransferTime(batch_bytes);
    st.training_ns = system_->gpu().TrainTime(st.input_nodes);
    st.e2e_ns = std::max(st.sampling_ns + changeset_ns, st.aggregation_ns) +
                st.transfer_ns + st.training_ns;
    if (st.aggregation_ns > 0) {
      st.effective_bandwidth_bps =
          static_cast<double>(batch_bytes) / NsToSec(st.aggregation_ns);
    }

    // Cost ledger: changeset precomputation bills as sampling-side CPU
    // work; the overlap credit is exactly the pipelined min(sampling +
    // changeset, aggregation) that the max() above hid.
    obs::IterationLedger& led = st.ledger;
    led.sampling_ns = st.sampling_ns + changeset_ns;
    led.cpu_buffer_ns = copy_ns;
    led.storage_ns = read_ns;
    led.transfer_ns = st.transfer_ns;
    led.training_ns = st.training_ns;
    led.overlap_credit_ns = led.PositiveSum() - st.e2e_ns;

    if (!options_.counting_mode) {
      lb.features.resize(st.input_nodes * fs.feature_dim());
      const auto& nodes = lb.batch.input_nodes();
      for (size_t j = 0; j < nodes.size(); ++j) {
        fs.FillFeature(nodes[j], std::span<float>(
                                     lb.features.data() + j * fs.feature_dim(),
                                     fs.feature_dim()));
      }
    }
    ready_.push_back(std::move(lb));
  }

  if (superbatches_total_ != nullptr) superbatches_total_->Inc();
  if (observer_ != nullptr) {
    uint64_t pages = 0;
    for (const auto& trace : traces) pages += trace.size();
    observer_->Instant("superbatch_prepared",
                       {{"iterations", static_cast<double>(n)},
                        {"page_accesses", static_cast<double>(pages)}});
  }
}

StatusOr<LoaderBatch> GinexLoader::Next() {
  if (dataset_->spec.kind == graph::GraphKind::kHeterogeneous) {
    return Status::Unimplemented(
        "Ginex supports only homogeneous graphs (paper §4.1)");
  }
  if (sampler_->name() != "neighborhood") {
    return Status::Unimplemented(
        "Ginex supports only neighborhood sampling (paper §4.1)");
  }
  if (ready_.empty()) PrepareSuperbatch();
  LoaderBatch out = std::move(ready_.front());
  ready_.pop_front();
  elapsed_ns_ += out.stats.e2e_ns;
  ++iterations_;
  if (observer_ != nullptr) observer_->RecordIteration(out.stats);
  return out;
}

}  // namespace gids::loaders
