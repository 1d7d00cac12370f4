#include "driver/harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <unordered_map>

namespace perfbench {
namespace {

constexpr size_t kRefTableWords = (32u << 20) / sizeof(uint64_t);
constexpr int kRefReads = 1 << 17;
constexpr int kRefInserts = 1 << 16;
constexpr int kRefBlocks = 1024;
constexpr int kRefBlockWords = 64;
constexpr int kRefBlockPasses = 48;

inline uint64_t XorShift(uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

double StatusFieldMb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) {
      return std::strtod(line.c_str() + n, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0;
}

}  // namespace

RefLoop::RefLoop(Kind kind) : kind_(kind) {
  if (kind_ == Kind::kRandomTable) table_.resize(kRefTableWords);
  uint64_t x = 0x2545f4914f6cdd1dull;
  for (uint64_t& w : table_) w = XorShift(x);
  // The first runs fault in the hash map's heap; keep them out of the
  // timings.
  RunMs();
  RunMs();
}

double RefLoop::RunMs() {
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  uint64_t acc = 0;
  int inserts = kRefInserts;
  if (kind_ == Kind::kRandomTable) {
    for (int i = 0; i < kRefReads; ++i) {
      acc += table_[XorShift(x) & (kRefTableWords - 1)];
    }
  } else {
    std::vector<std::vector<uint64_t>> blocks(kRefBlocks);
    for (auto& b : blocks) b.assign(kRefBlockWords, XorShift(x));
    for (int pass = 0; pass < kRefBlockPasses; ++pass) {
      for (const auto& b : blocks) {
        for (uint64_t w : b) acc += w ^ (acc >> 7);
      }
    }
    inserts /= 2;
  }
  std::unordered_map<uint64_t, uint64_t> map;
  for (int i = 0; i < inserts; ++i) map.emplace(XorShift(x), acc);
  sink_ += acc + map.size();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

HostMeter::HostMeter(RefLoop* ref, double segment_s)
    : ref_(ref), segment_s_(segment_s) {}

void HostMeter::Open() {
  if (!started_) {
    started_ = true;
    last_ref_ms_ = TimeRef(3);
  }
  open_ops_ = 0;
  open_at_ = Clock::now();
}

void HostMeter::Close() {
  const double wall = SecondsSince(open_at_);
  const double before = last_ref_ms_;
  // Long segments (a whole serving Run) get proportionally more reference
  // samples, so the reference is timed at about the same density
  // everywhere.
  last_ref_ms_ = TimeRef(static_cast<int>(
      std::clamp(std::lround(wall / segment_s_), 1L, 16L)));
  const double scaled =
      wall * ref_->nominal_ms() / (0.5 * (before + last_ref_ms_));
  wall_s_ += wall;
  scaled_s_ += scaled;
  ops_ += open_ops_;
  if (wall > 0) {
    raw_rates_.push_back(static_cast<double>(open_ops_) / wall);
    scaled_rates_.push_back(static_cast<double>(open_ops_) / scaled);
  }
  open_ops_ = 0;
}

bool HostMeter::SegmentDue() const {
  return SecondsSince(open_at_) >= segment_s_;
}

double HostMeter::ops_per_s() const {
  return scaled_s_ > 0 ? static_cast<double>(ops_) / scaled_s_ : 0.0;
}

double HostMeter::raw_ops_per_s() const {
  return wall_s_ > 0 ? static_cast<double>(ops_) / wall_s_ : 0.0;
}

double HostMeter::measured_s() const { return wall_s_; }

std::vector<std::string> HostMeter::Notes() const {
  char a[200], b[200];
  std::snprintf(a, sizeof(a),
                "host: %llu ops in %.3f s measured, raw %.2f ops/s, scaled "
                "%.2f ops/s",
                static_cast<unsigned long long>(ops_), wall_s_,
                raw_ops_per_s(), ops_per_s());
  std::snprintf(b, sizeof(b),
                "host: %zu reference timings, median %.3f ms; per-segment "
                "rate CV raw %.4f, scaled %.4f",
                ref_ms_.size(), Median(ref_ms_), Cv(raw_rates_),
                Cv(scaled_rates_));
  return {a, b};
}

double HostMeter::TimeRef(int samples) {
  std::vector<double> ms;
  for (int i = 0; i < samples; ++i) ms.push_back(ref_->RunMs());
  ref_ms_.insert(ref_ms_.end(), ms.begin(), ms.end());
  return Median(std::move(ms));
}

double HostMeter::Cv(const std::vector<double>& v) {
  if (v.size() < 2) return 0;
  double mean = 0;
  for (double x : v) mean += x;
  mean /= static_cast<double>(v.size());
  double var = 0;
  for (double x : v) var += (x - mean) * (x - mean);
  var /= static_cast<double>(v.size() - 1);
  return mean > 0 ? std::sqrt(var) / mean : 0;
}

void Fingerprint::Mix(uint64_t v) {
  hash_ ^= v;
  hash_ *= 0x100000001b3ull;
}

void Fingerprint::MixBatch(const gids::loaders::LoaderBatch& lb) {
  for (auto s : lb.batch.seeds) Mix(s);
  for (const auto& block : lb.batch.blocks) {
    Mix(block.num_dst);
    for (auto n : block.src_nodes) Mix(n);
    for (auto e : block.edge_src) Mix(e);
    for (auto e : block.edge_dst) Mix(e);
  }
  const auto& st = lb.stats;
  Mix(static_cast<uint64_t>(st.sampling_ns));
  Mix(static_cast<uint64_t>(st.aggregation_ns));
  Mix(static_cast<uint64_t>(st.e2e_ns));
  Mix(st.gather.nodes);
  Mix(st.gather.cpu_buffer_hits);
  Mix(st.gather.gpu_cache_hits);
  Mix(st.gather.storage_reads);
  Mix(st.gather.coalesced_requests);
  Mix(st.gather.degraded_nodes);
  Mix(st.gather.corrupt_nodes);
  Mix(st.sampled_edges);
  Mix(st.input_nodes);
  Mix(st.merged_group);
  Mix(st.failovers);
}

void Fingerprint::MixOutcome(const gids::serving::RequestOutcome& o) {
  Mix(o.id);
  Mix(o.batch_id);
  Mix(static_cast<uint64_t>(o.arrival_ns));
  Mix(static_cast<uint64_t>(o.completion_ns));
  Mix(o.on_time ? 1 : 0);
}

double RunResult::Find(const std::string& name) const {
  for (const auto* list : {&e2e, &layers}) {
    for (const Metric& m : *list) {
      if (m.name == name) return m.value;
    }
  }
  return std::nan("");
}

bool MoreSetups(const RunConfig& cfg, const std::vector<double>& done) {
  const int n = static_cast<int>(done.size());
  if (cfg.trace) return n < 1;
  double total = 0;
  for (double s : done) total += s;
  return n < cfg.setups || (total < cfg.setup_seconds && n < 9);
}

double PeakRssMb() { return StatusFieldMb("VmHWM:"); }
double CurrentRssMb() { return StatusFieldMb("VmRSS:"); }

double Percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t rank =
      static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Median(std::vector<double> v) { return Percentile(v, 0.5); }

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace perfbench
