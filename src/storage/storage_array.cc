#include "storage/storage_array.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"

namespace gids::storage {

StorageArray::StorageArray(std::unique_ptr<BlockDevice> device,
                           sim::SsdSpec spec, int n_ssd, uint32_t num_queues,
                           uint32_t queue_depth)
    : device_(std::move(device)),
      spec_(std::move(spec)),
      n_ssd_(n_ssd),
      queues_(num_queues, queue_depth) {
  GIDS_CHECK(device_ != nullptr);
  GIDS_CHECK(n_ssd_ > 0);
  per_device_reads_ = std::make_unique<std::atomic<uint64_t>[]>(n_ssd_);
  failovers_from_device_ = std::make_unique<std::atomic<uint64_t>[]>(n_ssd_);
  reads_by_replica_ =
      std::make_unique<std::atomic<uint64_t>[]>(ReplicaSet::kMaxReplicas);
}

void StorageArray::EnableReplication(const ReplicaOptions& options) {
  replicas_ = options.enabled()
                  ? std::make_unique<ReplicaSet>(n_ssd_, options)
                  : nullptr;
}

void StorageArray::EnableJournal(const JournalOptions& options) {
  journal_ = std::make_unique<JournalCoordinator>(
      n_ssd_, options, replicas_.get(), &checksummer_);
}

uint64_t StorageArray::SubmitMutation(MutationRecord rec) {
  GIDS_CHECK(journal_ != nullptr);
  return journal_->Submit(std::move(rec),
                          [this](int d) { return DeviceOnline(d); });
}

uint64_t StorageArray::SyncJournals() {
  GIDS_CHECK(journal_ != nullptr);
  return journal_->SyncAll([this](int d) { return DeviceOnline(d); });
}

uint64_t StorageArray::ApplyJournal(
    uint64_t budget,
    const std::function<void(const MutationRecord&,
                             std::span<const uint64_t> pages)>& on_applied) {
  GIDS_CHECK(journal_ != nullptr);
  std::vector<uint64_t> touched;
  return journal_->ApplyReady(budget, [&](const MutationRecord& rec) {
    ApplyRecordToPages(rec, &touched);
    if (replicas_ != nullptr) {
      // The apply reaches every online home replica; offline copies lag
      // behind (stale) and read routing skips them from now on.
      for (uint64_t page : touched) {
        for (int r = 0; r < replicas_->factor(); ++r) {
          const int d = replicas_->Device(page, r);
          if (DeviceOnline(d)) replicas_->NoteApplied(page, rec.lsn, d);
        }
      }
    }
    if (on_applied) on_applied(rec, touched);
  });
}

void StorageArray::CrashJournal(uint64_t crash_seed) {
  GIDS_CHECK(journal_ != nullptr);
  journal_->Crash(crash_seed);
}

uint64_t StorageArray::RecoverJournal() {
  GIDS_CHECK(journal_ != nullptr);
  return journal_->Recover();
}

Status StorageArray::ReadCleanPage(uint64_t page,
                                   std::span<std::byte> out) const {
  if (journal_ != nullptr) {
    std::shared_lock<std::shared_mutex> lock(overlay_mu_);
    auto it = overlay_.find(page);
    if (it != overlay_.end()) {
      std::memcpy(out.data(), it->second.data(),
                  std::min(out.size(), it->second.size()));
      return Status::OK();
    }
  }
  return device_->ReadBlock(page, out);
}

void StorageArray::ApplyRecordToPages(const MutationRecord& rec,
                                      std::vector<uint64_t>* pages) {
  pages->clear();
  if (rec.payload.empty()) return;  // topology deltas touch no page bytes
  const uint64_t pb = page_bytes();
  std::unique_lock<std::shared_mutex> lock(overlay_mu_);
  uint64_t pos = rec.offset;
  size_t done = 0;
  while (done < rec.payload.size()) {
    const uint64_t page = pos / pb;
    const uint64_t in_page = pos % pb;
    const size_t n = static_cast<size_t>(
        std::min<uint64_t>(pb - in_page, rec.payload.size() - done));
    std::vector<std::byte>& buf = overlay_[page];
    if (buf.empty()) {
      buf.resize(pb);
      Status s = device_->ReadBlock(page, std::span<std::byte>(buf));
      GIDS_CHECK(s.ok());
    }
    std::memcpy(buf.data() + in_page, rec.payload.data() + done, n);
    done += n;
    pos += n;
    pages->push_back(page);
    // Checkpointing rewrites the whole striped page: that is the
    // write-amplification the ledger reports against logical bytes.
    journal_->mutable_counters().applied_page_bytes.fetch_add(
        pb, std::memory_order_relaxed);
    // Refresh the expected-checksum memo in place: the new bytes are in
    // hand, and a stale memo would make verify-on-read flag the mutation
    // itself as corruption.
    if (checksums_ != nullptr) {
      const uint32_t crc = checksummer_.Checksum(page, buf.data(), buf.size());
      checksums_[page].store((1ull << 32) | crc, std::memory_order_release);
    }
  }
}

void StorageArray::EnableFaultInjection(const FaultOptions& faults,
                                        const RetryPolicy& retry) {
  retry_ = retry;
  injector_ = faults.enabled()
                  ? std::make_unique<FaultInjector>(faults, retry)
                  : nullptr;
}

void StorageArray::EnableIntegrity(const IntegrityOptions& integrity) {
  integrity_ = integrity;
  checksummer_ = PageChecksummer(integrity.crc_seed);
}

void StorageArray::EnsureChecksumTable() {
  std::call_once(checksums_once_, [this] {
    checksums_ = std::make_unique<std::atomic<uint64_t>[]>(num_pages());
  });
}

uint32_t StorageArray::ExpectedChecksum(uint64_t page) {
  EnsureChecksumTable();
  std::atomic<uint64_t>& slot = checksums_[page];
  uint64_t memo = slot.load(std::memory_order_acquire);
  if (memo != 0) return static_cast<uint32_t>(memo);
  // First touch of this page: regenerate ground truth from the device
  // patched with the applied-mutation overlay (corruption is injected
  // above both, so these bytes are the clean, write-time contents) and
  // memoize the sum. Racing threads compute the same value, so the
  // unconditional store is benign.
  thread_local std::vector<std::byte> scratch;
  scratch.resize(page_bytes());
  Status s = ReadCleanPage(page, std::span<std::byte>(scratch));
  GIDS_CHECK(s.ok());
  uint32_t crc = checksummer_.Checksum(page, scratch.data(), scratch.size());
  slot.store((1ull << 32) | crc, std::memory_order_release);
  return crc;
}

Status StorageArray::ReadPage(uint64_t page, std::span<std::byte> out,
                              ReadOutcome* oc) {
  const bool verify = integrity_.verify_reads;
  if (injector_ == nullptr && !verify) {
    // Fault-free fast path: one doorbell, one (optional) device read.
    GIDS_RETURN_IF_ERROR(queues_.RoundTrip(page));
    if (!out.empty()) {
      GIDS_RETURN_IF_ERROR(ReadCleanPage(page, out));
      if (oc != nullptr && integrity_.enabled()) {
        oc->crc = ExpectedChecksum(page);
        oc->crc_known = true;
      }
    }
    CountRead(page, DeviceFor(page));
    return Status::OK();
  }

  // Bounded-retry loop. Every attempt is a fresh NVMe command (its own
  // doorbell); failed attempts back off exponentially in virtual time.
  // All decisions are pure functions of (fault_seed, page, attempt) and
  // the virtual clock, so the loop's counters are identical across runs
  // and thread counts. A checksum mismatch (verify_reads) is a failed
  // attempt like a transient error: the wasted service is charged and the
  // page is re-read. With a replica set installed, each attempt is first
  // routed to a healthy, fresh replica (primary preferred) instead of
  // pinning the page to its striped home — a device taken offline
  // mid-epoch degrades to a failover read, not a zero-fill.
  const int primary = DeviceFor(page);
  const TimeNs base_latency = spec_.read_latency_ns;
  const TimeNs now_ns = clock_ns();
  std::function<bool(int)> healthy;
  if (replicas_ != nullptr) {
    healthy = [this, now_ns](int d) {
      return injector_ == nullptr ||
             !injector_->options().DeviceOffline(d, now_ns);
    };
  }
  TimeNs penalty_ns = 0;  // virtual time beyond one fault-free service
  TimeNs crc_ns = 0;      // checksum-verification share of penalty_ns
  const uint32_t attempts = retry_.max_retries + 1;
  bool saw_mismatch = false;
  bool last_fail_mismatch = false;
  bool quorum_lost = false;
  for (uint32_t attempt = 0; attempt < attempts; ++attempt) {
    GIDS_RETURN_IF_ERROR(queues_.RoundTrip(page));
    int device = primary;
    int replica = 0;
    if (replicas_ != nullptr) {
      device = replicas_->RouteAttempt(page, attempt, healthy, &replica,
                                       &quorum_lost);
    }
    FaultInjector::Attempt a;
    if (injector_ != nullptr) {
      a = injector_->Evaluate(page, device, attempt, base_latency, now_ns);
    }
    if (a.outcome == FaultInjector::Outcome::kOk) {
      bool mismatch = false;
      if (!out.empty()) {
        GIDS_RETURN_IF_ERROR(ReadCleanPage(page, out));
        if (a.corrupt) injector_->Corrupt(page, attempt, out);
      }
      if (verify) {
        verified_reads_total_.fetch_add(1, std::memory_order_relaxed);
        penalty_ns += integrity_.crc_verify_ns;
        crc_ns += integrity_.crc_verify_ns;
        if (!out.empty()) {
          // The injected burst is at most 32 bits, inside CRC-32C's
          // guaranteed detection window: the compare fails exactly when
          // the attempt was corrupt, matching counting mode below.
          mismatch = checksummer_.Checksum(page, out.data(), out.size()) !=
                     ExpectedChecksum(page);
        } else {
          mismatch = a.corrupt;
        }
      }
      if (!mismatch) {
        penalty_ns += a.extra_ns;  // latency spike on the winning attempt
        if (oc != nullptr) {
          // With verification off, corrupt bytes are served silently; the
          // caching layer remembers the taint so later verify points (or
          // the scrubber) can still catch it.
          oc->served_corrupt = a.corrupt;
          oc->served_replica = replica;
          oc->penalty_ns = penalty_ns;
          oc->crc_ns = crc_ns;
          if (!out.empty() && integrity_.enabled()) {
            oc->crc = ExpectedChecksum(page);
            oc->crc_known = true;
          }
        }
        CountRead(page, device);
        if (replicas_ != nullptr) {
          reads_by_replica_[replica].fetch_add(1, std::memory_order_relaxed);
          if (replica != 0) {
            replica_failovers_total_.fetch_add(1, std::memory_order_relaxed);
            failovers_from_device_[primary].fetch_add(
                1, std::memory_order_relaxed);
          }
        }
        if (saw_mismatch) {
          integrity_repairs_total_.fetch_add(1, std::memory_order_relaxed);
        }
        if (penalty_ns > 0) {
          retry_penalty_ns_total_.fetch_add(static_cast<uint64_t>(penalty_ns),
                                            std::memory_order_relaxed);
          if (crc_ns > 0) {
            crc_verify_ns_total_.fetch_add(static_cast<uint64_t>(crc_ns),
                                           std::memory_order_relaxed);
          }
          if (retry_latency_hist_ != nullptr) {
            retry_latency_hist_->Observe(static_cast<uint64_t>(penalty_ns));
          }
        }
        return Status::OK();
      }
      // Served but corrupt: the whole attempt was wasted.
      checksum_mismatches_total_.fetch_add(1, std::memory_order_relaxed);
      saw_mismatch = true;
      last_fail_mismatch = true;
      penalty_ns += base_latency + a.extra_ns;
    } else {
      last_fail_mismatch = false;
      // Failed attempt: charge what the command consumed before failing.
      switch (a.outcome) {
        case FaultInjector::Outcome::kTimeout:
          timeouts_total_.fetch_add(1, std::memory_order_relaxed);
          penalty_ns += base_latency + a.extra_ns;  // held to the deadline
          break;
        case FaultInjector::Outcome::kTransient:
        case FaultInjector::Outcome::kOffline:
          penalty_ns += base_latency;  // completed with an error status
          break;
        case FaultInjector::Outcome::kOk:
          break;  // unreachable
      }
    }
    if (attempt + 1 < attempts) {
      retries_total_.fetch_add(1, std::memory_order_relaxed);
      TimeNs backoff = retry_.BackoffNs(attempt);
      retry_backoff_ns_total_.fetch_add(static_cast<uint64_t>(backoff),
                                        std::memory_order_relaxed);
      penalty_ns += backoff;
    }
  }
  dead_letters_total_.fetch_add(1, std::memory_order_relaxed);
  if (oc != nullptr) {
    oc->penalty_ns = penalty_ns;
    oc->crc_ns = crc_ns;
  }
  if (quorum_lost) {
    replica_quorum_lost_total_.fetch_add(1, std::memory_order_relaxed);
  }
  retry_penalty_ns_total_.fetch_add(static_cast<uint64_t>(penalty_ns),
                                    std::memory_order_relaxed);
  if (crc_ns > 0) {
    crc_verify_ns_total_.fetch_add(static_cast<uint64_t>(crc_ns),
                                   std::memory_order_relaxed);
  }
  // The non-CRC remainder of a dead-lettered read's penalty is the cost of
  // the attempts wasted on a page the caller will zero-fill (degraded
  // service). The ledger attributes it separately from ordinary retries.
  degraded_penalty_ns_total_.fetch_add(
      static_cast<uint64_t>(penalty_ns - crc_ns), std::memory_order_relaxed);
  if (retry_latency_hist_ != nullptr) {
    retry_latency_hist_->Observe(static_cast<uint64_t>(penalty_ns));
  }
  if (last_fail_mismatch) {
    data_loss_total_.fetch_add(1, std::memory_order_relaxed);
    return Status::DataLoss("page " + std::to_string(page) + ": " +
                            std::to_string(attempts) +
                            " attempts failed verification (unrepairable)");
  }
  return Status::Unavailable("page " + std::to_string(page) + ": " +
                             std::to_string(attempts) +
                             " attempts failed (dead-lettered)");
}

void StorageArray::BindMetrics(obs::MetricRegistry* registry,
                               const obs::Labels& labels,
                               bool attribution_series) {
  GIDS_CHECK(registry != nullptr);
  using obs::MetricType;
  registry->RegisterCallback(
      "gids_storage_reads_total", labels, MetricType::kCounter,
      [this] { return static_cast<double>(total_reads_); });
  for (int d = 0; d < n_ssd_; ++d) {
    obs::Labels device_labels = labels;
    device_labels.emplace_back("device", std::to_string(d));
    registry->RegisterCallback(
        "gids_storage_device_reads_total", std::move(device_labels),
        MetricType::kCounter,
        [this, d] { return static_cast<double>(reads_on_device(d)); });
  }
  registry->RegisterCallback(
      "gids_io_doorbells_total", labels, MetricType::kCounter,
      [this] { return static_cast<double>(queues_.total_submissions()); });
  registry->RegisterCallback(
      "gids_io_queue_outstanding", labels, MetricType::kGauge,
      [this] { return static_cast<double>(queues_.outstanding()); });
  registry->RegisterCallback(
      "gids_io_queue_capacity", labels, MetricType::kGauge,
      [this] { return static_cast<double>(queue_capacity()); });
  registry->RegisterCallback(
      "gids_storage_retries_total", labels, MetricType::kCounter,
      [this] { return static_cast<double>(retries_total()); });
  registry->RegisterCallback(
      "gids_storage_timeouts_total", labels, MetricType::kCounter,
      [this] { return static_cast<double>(timeouts_total()); });
  registry->RegisterCallback(
      "gids_storage_dead_letters_total", labels, MetricType::kCounter,
      [this] { return static_cast<double>(dead_letters_total()); });
  registry->RegisterCallback(
      "gids_storage_retry_backoff_ns_total", labels, MetricType::kCounter,
      [this] { return static_cast<double>(retry_backoff_ns_total()); });
  registry->RegisterCallback(
      "gids_storage_faults_injected_total", labels, MetricType::kCounter,
      [this] {
        return injector_ != nullptr
                   ? static_cast<double>(injector_->faults_injected())
                   : 0.0;
      });
  registry->RegisterCallback(
      "gids_storage_pages_corrupted_total", labels, MetricType::kCounter,
      [this] {
        return injector_ != nullptr
                   ? static_cast<double>(injector_->pages_corrupted())
                   : 0.0;
      });
  registry->RegisterCallback(
      "gids_storage_verified_reads_total", labels, MetricType::kCounter,
      [this] { return static_cast<double>(verified_reads_total()); });
  registry->RegisterCallback(
      "gids_storage_checksum_mismatches_total", labels, MetricType::kCounter,
      [this] { return static_cast<double>(checksum_mismatches_total()); });
  registry->RegisterCallback(
      "gids_storage_integrity_repairs_total", labels, MetricType::kCounter,
      [this] { return static_cast<double>(integrity_repairs_total()); });
  registry->RegisterCallback(
      "gids_storage_data_loss_total", labels, MetricType::kCounter,
      [this] { return static_cast<double>(data_loss_total()); });
  if (attribution_series) {
    registry->RegisterCallback(
        "gids_storage_crc_verify_ns_total", labels, MetricType::kCounter,
        [this] { return static_cast<double>(crc_verify_ns_total()); });
    registry->RegisterCallback(
        "gids_storage_degraded_penalty_ns_total", labels, MetricType::kCounter,
        [this] { return static_cast<double>(degraded_penalty_ns_total()); });
  }
  // Replication and journal families are bound only when the subsystem is
  // enabled, so defaults-off runs keep their exact metric set (and their
  // bit-identical RESULT_JSON).
  if (replicas_ != nullptr) {
    registry->RegisterCallback(
        "gids_replica_failovers_total", labels, MetricType::kCounter,
        [this] { return static_cast<double>(replica_failovers_total()); });
    registry->RegisterCallback(
        "gids_replica_quorum_lost_total", labels, MetricType::kCounter,
        [this] { return static_cast<double>(replica_quorum_lost_total()); });
    for (int r = 0; r < replicas_->factor(); ++r) {
      obs::Labels replica_labels = labels;
      replica_labels.emplace_back("replica", std::to_string(r));
      registry->RegisterCallback(
          "gids_replica_reads_total", std::move(replica_labels),
          MetricType::kCounter,
          [this, r] { return static_cast<double>(reads_by_replica(r)); });
    }
    for (int d = 0; d < n_ssd_; ++d) {
      obs::Labels device_labels = labels;
      device_labels.emplace_back("device", std::to_string(d));
      registry->RegisterCallback(
          "gids_replica_failovers_from_total", std::move(device_labels),
          MetricType::kCounter,
          [this, d] { return static_cast<double>(failovers_from_device(d)); });
    }
  }
  if (journal_ != nullptr) {
    const JournalCounters& jc = journal_->counters();
    struct Series {
      const char* name;
      const std::atomic<uint64_t>* value;
    };
    const Series series[] = {
        {"gids_journal_appends_total", &jc.appends},
        {"gids_journal_append_failures_total", &jc.append_failures},
        {"gids_journal_fsyncs_total", &jc.fsyncs},
        {"gids_journal_applied_total", &jc.applied},
        {"gids_journal_replayed_total", &jc.replayed},
        {"gids_journal_truncated_total", &jc.truncated},
        {"gids_journal_torn_total", &jc.torn},
        {"gids_journal_resubmitted_total", &jc.resubmitted},
        {"gids_journal_quorum_stalls_total", &jc.quorum_stalls},
        {"gids_journal_crashes_total", &jc.crashes},
        {"gids_journal_recovers_total", &jc.recovers},
        {"gids_journal_mutation_ns_total", &jc.mutation_ns},
    };
    for (const Series& s : series) {
      const std::atomic<uint64_t>* v = s.value;
      registry->RegisterCallback(s.name, labels, MetricType::kCounter, [v] {
        return static_cast<double>(v->load(std::memory_order_relaxed));
      });
    }
    registry->RegisterCallback(
        "gids_journal_pending_records", labels, MetricType::kGauge, [this] {
          return static_cast<double>(journal_->pending_records());
        });
    registry->RegisterCallback(
        "gids_journal_write_amplification", labels, MetricType::kGauge,
        [this] { return journal_->WriteAmplification(); });
  }
  request_bytes_hist_ =
      registry->GetHistogram("gids_storage_request_bytes", labels);
  retry_latency_hist_ =
      registry->GetHistogram("gids_storage_retry_latency_ns", labels);
}

void StorageArray::ResetCounters() {
  total_reads_.store(0, std::memory_order_relaxed);
  retries_total_.store(0, std::memory_order_relaxed);
  timeouts_total_.store(0, std::memory_order_relaxed);
  dead_letters_total_.store(0, std::memory_order_relaxed);
  retry_backoff_ns_total_.store(0, std::memory_order_relaxed);
  retry_penalty_ns_total_.store(0, std::memory_order_relaxed);
  crc_verify_ns_total_.store(0, std::memory_order_relaxed);
  degraded_penalty_ns_total_.store(0, std::memory_order_relaxed);
  verified_reads_total_.store(0, std::memory_order_relaxed);
  checksum_mismatches_total_.store(0, std::memory_order_relaxed);
  integrity_repairs_total_.store(0, std::memory_order_relaxed);
  data_loss_total_.store(0, std::memory_order_relaxed);
  replica_failovers_total_.store(0, std::memory_order_relaxed);
  replica_quorum_lost_total_.store(0, std::memory_order_relaxed);
  for (int d = 0; d < n_ssd_; ++d) {
    per_device_reads_[d].store(0, std::memory_order_relaxed);
    failovers_from_device_[d].store(0, std::memory_order_relaxed);
  }
  for (int r = 0; r < ReplicaSet::kMaxReplicas; ++r) {
    reads_by_replica_[r].store(0, std::memory_order_relaxed);
  }
}

}  // namespace gids::storage
