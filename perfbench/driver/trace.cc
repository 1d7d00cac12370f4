#include "driver/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

namespace perfbench {
namespace {

std::atomic<uint64_t> g_log_generation{1};

struct ThreadSlot {
  uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

SpanLog::SpanLog()
    : epoch_(Clock::now()),
      generation_(g_log_generation.fetch_add(1, std::memory_order_relaxed)) {}

int64_t SpanLog::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

SpanLog::ThreadBuffer* SpanLog::Buffer() {
  // The generation tells a slot left by an earlier log apart from ours.
  if (t_slot.generation != generation_) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    buffers_.back()->tid = static_cast<uint32_t>(buffers_.size());
    buffers_.back()->spans.reserve(4096);
    t_slot.generation = generation_;
    t_slot.buffer = buffers_.back().get();
  }
  return static_cast<ThreadBuffer*>(t_slot.buffer);
}

void SpanLog::Add(const Span& span) {
  ThreadBuffer* buf = Buffer();
  buf->spans.push_back(span);
  buf->spans.back().tid = buf->tid;
}

std::vector<Span> SpanLog::Collect() const {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buf : buffers_) {
    all.insert(all.end(), buf->spans.begin(), buf->spans.end());
  }
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
  });
  return all;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"perfbench host clock\"}}");
  for (const Span& s : Collect()) {
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                 "\"parent\":%llu,\"op\":%llu",
                 s.name, s.tid, static_cast<double>(s.start_ns) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op));
    if (s.edges != 0 || s.inputs != 0) {
      std::fprintf(f, ",\"edges\":%llu,\"input_nodes\":%llu",
                   static_cast<unsigned long long>(s.edges),
                   static_cast<unsigned long long>(s.inputs));
    }
    std::fprintf(f, "}}");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(SpanLog* log, const char* name, uint64_t op,
                       bool publish)
    : log_(log), publish_(publish) {
  if (log_ == nullptr) return;
  span_.name = name;
  span_.op = op;
  span_.id = log_->NewId();
  span_.parent = log_->current_parent();
  outer_op_ = log_->current_op();
  if (publish_) log_->SetCurrent(span_.id, op);
  span_.start_ns = log_->Now();
}

ScopedSpan::~ScopedSpan() {
  if (log_ == nullptr) return;
  span_.end_ns = log_->Now();
  if (publish_) log_->SetCurrent(span_.parent, outer_op_);
  log_->Add(span_);
}

void TracedSampler::SampleAtInto(std::span<const gids::graph::NodeId> seeds,
                                 uint64_t iteration,
                                 gids::sampling::MiniBatch* out) {
  Span s;
  s.name = "SampleAtInto";
  s.id = log_->NewId();
  s.parent = log_->current_parent();
  s.op = log_->current_op();
  s.start_ns = log_->Now();
  inner_->SampleAtInto(seeds, iteration, out);
  s.end_ns = log_->Now();
  s.edges = out->total_edges();
  s.inputs = out->num_input_nodes();
  log_->Add(s);
}

SpanTotals SumOpSpans(const std::vector<Span>& spans, const char* op_name) {
  SpanTotals t;
  std::unordered_set<uint64_t> op_ids;
  for (const Span& s : spans) {
    if (std::string_view(s.name) != op_name) continue;
    op_ids.insert(s.id);
    t.op_ms += static_cast<double>(s.duration_ns()) / 1e6;
  }
  for (const Span& s : spans) {
    if (std::string_view(s.name) != "SampleAtInto" ||
        op_ids.count(s.parent) == 0) {
      continue;
    }
    t.sampler_ms += static_cast<double>(s.duration_ns()) / 1e6;
    t.edges += s.edges;
    t.inputs += s.inputs;
  }
  return t;
}

double SpanSeconds(const std::vector<Span>& spans, const char* name) {
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) {
      return static_cast<double>(s.duration_ns()) / 1e9;
    }
  }
  return 0;
}

}  // namespace perfbench
