#include "serving/inference_server.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"
#include "common/workspace_pool.h"

namespace gids::serving {

InferenceServer::InferenceServer(const graph::CscGraph* graph,
                                 sampling::Sampler* sampler,
                                 ServingOptions options)
    : options_(std::move(options)),
      graph_(graph),
      sampler_(sampler),
      system_(sim::SystemConfig::Paper(sim::SsdSpec::IntelOptane(),
                                       options_.n_ssd)),
      fs_(graph->num_nodes(), options_.feature_dim),
      queue_(options_.max_queue_depth),
      former_(options_.max_batch_requests, options_.batch_window_ns) {
  GIDS_CHECK(sampler_ != nullptr);
  GIDS_CHECK_MSG(options_.executor_lanes > 0,
                 "InferenceServer requires executor_lanes > 0");
  GIDS_CHECK(options_.gpu_cache_lines > 0);

  auto dev = std::make_unique<storage::FunctionBlockDevice>(
      fs_.num_pages(), fs_.page_bytes(),
      [this](uint64_t lba, std::span<std::byte> out) {
        fs_.FillPage(lba, out);
      });
  array_ = std::make_unique<storage::StorageArray>(
      std::move(dev), sim::SsdSpec::IntelOptane(), options_.n_ssd);
  storage::FaultOptions faults;
  faults.fault_rate = options_.fault_rate;
  faults.fault_seed = options_.fault_seed;
  faults.corruption_rate = options_.corruption_rate;
  if (faults.enabled()) {
    array_->EnableFaultInjection(faults, storage::RetryPolicy{});
  }
  if (options_.verify_reads) {
    storage::IntegrityOptions integrity;
    integrity.verify_reads = true;
    array_->EnableIntegrity(integrity);
  }
  cache_ = std::make_unique<storage::SoftwareCache>(
      options_.gpu_cache_lines * fs_.page_bytes(), fs_.page_bytes(),
      fs_.num_pages(), /*seed=*/options_.seed ^ 0xcac4e,
      /*store_payloads=*/false);
  if (options_.host_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.host_threads);
  }
  gatherer_ = std::make_unique<storage::FeatureGatherer>(
      &fs_, array_.get(), cache_.get(), /*hot_buffer=*/nullptr,
      /*coalesce_pages=*/options_.coalesce_across_requests);

  if (options_.metrics != nullptr) {
    obs::MetricRegistry* reg = options_.metrics;
    obs::Labels labels{{"server", options_.display_name}};
    m_requests_ = reg->GetCounter("gids_serving_requests_total", labels);
    m_shed_ = reg->GetCounter("gids_serving_shed_total", labels);
    m_completed_ = reg->GetCounter("gids_serving_completed_total", labels);
    m_misses_ = reg->GetCounter("gids_serving_deadline_misses_total", labels);
    m_batches_ = reg->GetCounter("gids_serving_batches_total", labels);
    m_queue_depth_ = reg->GetGauge("gids_serving_queue_depth", labels);
    m_dedup_ = reg->GetGauge("gids_serving_dedup_ratio", labels);
    m_occupancy_ = reg->GetHistogram("gids_serving_batch_occupancy", labels);
  }
}

void InferenceServer::Push(TimeNs t, Event::Kind kind, uint64_t payload) {
  Event e;
  e.t = t;
  e.seq = next_seq_++;
  e.kind = kind;
  e.payload = payload;
  events_.push(e);
}

void InferenceServer::OnBatchClosed(FormedBatch batch, TimeNs now) {
  sched_.Enqueue(std::move(batch));
  TryDispatch(now);
}

void InferenceServer::TryDispatch(TimeNs now) {
  while (busy_lanes_ < options_.executor_lanes && !sched_.empty()) {
    FormedBatch batch = sched_.PopNext(now);
    uint64_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = completions_.size();
      completions_.emplace_back();
    }
    TimeNs service_ns = ExecuteBatch(batch, now, &completions_[slot]);
    ++busy_lanes_;
    Push(now + service_ns, Event::kLaneFree, slot);
  }
}

TimeNs InferenceServer::ExecuteBatch(const FormedBatch& batch, TimeNs now,
                                     ExecutedBatch* done) {
  const size_t k = batch.requests.size();
  GIDS_CHECK(k > 0);
  // Pin the storage array's virtual clock to the dispatch instant, so
  // fault onsets are pure functions of the event timeline.
  array_->AdvanceClock(now);

  if (mb_scratch_.size() < k) mb_scratch_.resize(k);
  sampling_ns_scratch_.assign(k, 0);

  // Phase 1 — sampling: every request samples from its id-keyed RNG
  // stream (Sampler::SampleAtInto purity), so the result is independent
  // of which batch or lane the request landed in, and of thread count.
  auto sample_one = [&](size_t i) {
    const Request& r = batch.requests[i];
    sampling::MiniBatch* mb = &mb_scratch_[i];
    sampler_->SampleAtInto(r.seeds, r.id, mb);
    Workspace<uint64_t> layer_edges;
    mb->LayerEdgeCountsInto(layer_edges);
    sampling_ns_scratch_[i] = system_.gpu().SamplingTime(
        layer_edges.data(), static_cast<int>(layer_edges.size()),
        graph_->structure_bytes());
  };
  if (pool_ != nullptr && sampler_->concurrent_safe() && k > 1) {
    pool_->ParallelFor(k, sample_one);
  } else {
    for (size_t i = 0; i < k; ++i) sample_one(i);
  }

  // Phase 2 — gather: one GatherGroup call per batch. With
  // coalesce_across_requests the gatherer coalesces pages across the
  // member requests; without it the call equals one uncoalesced gather
  // per request. Counting mode: the timing model only needs the traffic
  // counts.
  slice_scratch_.clear();
  for (size_t i = 0; i < k; ++i) {
    slice_scratch_.push_back(storage::GatherSlice{
        std::span<const graph::NodeId>(mb_scratch_[i].input_nodes()),
        std::span<float>()});
  }
  counts_scratch_.assign(k, storage::FeatureGatherCounts{});
  storage::GatherReceipt receipt;
  GIDS_CHECK_OK(gatherer_->GatherGroup(
      slice_scratch_,
      std::span<storage::FeatureGatherCounts>(counts_scratch_.data(), k),
      &receipt));
  storage::FeatureGatherCounts group;
  for (const auto& c : counts_scratch_) group.Add(c);
  result_.gather.Add(group);

  // Phase 3 — timing. The three gather service paths run concurrently in
  // the aggregation kernel; sampling overlaps it on the GPU's other
  // engines; per-request GNN compute follows serially.
  const storage::GatherCost cost = storage::CostGather(
      system_, group, fs_.page_bytes(), receipt, /*outstanding_cap=*/4096,
      /*mutation_ns=*/0, k);
  TimeNs sampling_sum = 0;
  for (TimeNs s : sampling_ns_scratch_) sampling_sum += s;
  TimeNs train_sum = 0;
  train_ns_scratch_.assign(k, 0);
  for (size_t i = 0; i < k; ++i) {
    train_ns_scratch_[i] =
        system_.gpu().TrainTime(mb_scratch_[i].num_input_nodes());
    train_sum += train_ns_scratch_[i];
  }
  TimeNs service_ns = std::max(cost.kernel_ns, sampling_sum) + train_sum;
  if (service_ns < 1) service_ns = 1;
  const TimeNs completion_ns = now + service_ns;

  // The scheduler's running estimate sees the batch at dispatch, so the
  // in-flight service time already informs feasibility decisions.
  sched_.RecordService(service_ns);

  // Phase 4 — per-request accounting, decided at dispatch, delivered at
  // the lane-free event. Shared batch costs split into exact integer
  // shares; each request's ledger balances exactly against its own e2e
  // (queue + batch wait is absorbed by the signed overlap credit).
  done->completion_ns = completion_ns;
  done->outcomes.clear();
  for (size_t i = 0; i < k; ++i) {
    const Request& r = batch.requests[i];
    RequestOutcome out;
    out.id = r.id;
    out.batch_id = batch.id;
    out.arrival_ns = r.arrival_ns;
    out.completion_ns = completion_ns;
    out.on_time = completion_ns <= r.deadline_ns;
    done->outcomes.push_back(out);

    obs::IterationLedger ledger = cost.MemberLedger(i);
    ledger.sampling_ns = sampling_ns_scratch_[i];
    ledger.training_ns = train_ns_scratch_[i];
    const TimeNs e2e_ns = completion_ns - r.arrival_ns;
    ledger.overlap_credit_ns = ledger.PositiveSum() - e2e_ns;
    RecordRequestSample(r, completion_ns, counts_scratch_[i], ledger);
  }
  result_.batch_occupancy.Add(k);
  if (m_occupancy_ != nullptr) m_occupancy_->Observe(k);
  ++result_.batches;
  if (m_batches_ != nullptr) m_batches_->Inc();
  return service_ns;
}

void InferenceServer::RecordRequestSample(
    const Request& r, TimeNs completion_ns,
    const storage::FeatureGatherCounts& counts,
    const obs::IterationLedger& ledger) {
  result_.latency_ns.Add(static_cast<uint64_t>(completion_ns - r.arrival_ns));
  if (options_.latency_timeline == nullptr) return;
  obs::IterationSample s;
  s.iteration = r.id;
  s.end_ns = completion_ns;
  s.e2e_ns = completion_ns - r.arrival_ns;
  s.gpu_cache_hits = counts.gpu_cache_hits;
  s.cpu_buffer_hits = counts.cpu_buffer_hits;
  s.storage_reads = counts.storage_reads;
  s.ledger = ledger;
  options_.latency_timeline->Record(s);
}

ServingRunResult InferenceServer::Run(TrafficGenerator& traffic,
                                      uint64_t num_requests) {
  GIDS_CHECK_MSG(!ran_, "InferenceServer::Run is single-shot");
  ran_ = true;
  if (num_requests == 0) return std::move(result_);

  Request next_arrival = traffic.Next();
  uint64_t generated = 1;
  Push(next_arrival.arrival_ns, Event::kArrival, 0);

  while (!events_.empty()) {
    Event e = events_.top();
    events_.pop();
    switch (e.kind) {
      case Event::kArrival: {
        Request r = std::move(next_arrival);
        if (generated < num_requests) {
          next_arrival = traffic.Next();
          ++generated;
          Push(next_arrival.arrival_ns, Event::kArrival, 0);
        }
        if (m_requests_ != nullptr) m_requests_->Inc();
        if (!queue_.TryAdmit()) {
          if (m_shed_ != nullptr) m_shed_->Inc();
          break;
        }
        if (m_queue_depth_ != nullptr) m_queue_depth_->Set(queue_.depth());
        FormedBatch closed;
        bool opened = false;
        bool closed_by_size = former_.Add(std::move(r), e.t, &closed, &opened);
        if (opened && !closed_by_size) {
          Push(e.t + former_.window_ns(), Event::kWindow,
               former_.generation());
        }
        if (closed_by_size) OnBatchClosed(std::move(closed), e.t);
        break;
      }
      case Event::kWindow: {
        FormedBatch closed;
        if (former_.ExpireWindow(e.payload, e.t, &closed)) {
          OnBatchClosed(std::move(closed), e.t);
        }
        break;
      }
      case Event::kLaneFree: {
        ExecutedBatch& done = completions_[e.payload];
        for (const RequestOutcome& out : done.outcomes) {
          queue_.Release();
          ++result_.completed;
          if (out.on_time) {
            ++result_.on_time;
          } else {
            ++result_.deadline_misses;
            if (m_misses_ != nullptr) m_misses_->Inc();
          }
          result_.outcomes.push_back(out);
        }
        if (m_completed_ != nullptr) m_completed_->Inc(done.outcomes.size());
        if (m_queue_depth_ != nullptr) m_queue_depth_->Set(queue_.depth());
        if (done.completion_ns > result_.last_completion_ns) {
          result_.last_completion_ns = done.completion_ns;
        }
        done.outcomes.clear();
        free_slots_.push_back(e.payload);
        GIDS_CHECK(busy_lanes_ > 0);
        --busy_lanes_;
        TryDispatch(e.t);
        break;
      }
    }
  }

  result_.offered = queue_.offered();
  result_.admitted = queue_.admitted();
  result_.shed = queue_.shed();
  result_.max_queue_depth = queue_.max_depth_seen();
  result_.max_backlog = sched_.max_backlog();
  result_.batches = former_.batches_formed();
  result_.storage_array_reads = array_->total_reads();
  result_.dead_letters = array_->dead_letters_total();
  result_.p50_service_estimate_ns = sched_.EstimateP50();
  result_.p99_service_estimate_ns = sched_.EstimateP99();
  if (m_dedup_ != nullptr) m_dedup_->Set(result_.dedup_ratio());

  // Zero deadline-accounting drift: every offered request is accounted
  // exactly once, and every admitted one completed exactly once.
  GIDS_CHECK(result_.admitted + result_.shed == result_.offered);
  GIDS_CHECK(result_.completed == result_.admitted);
  GIDS_CHECK(result_.on_time + result_.deadline_misses == result_.completed);
  GIDS_CHECK(queue_.depth() == 0);
  return std::move(result_);
}

}  // namespace gids::serving
