// Host-clock spans for the traced run: recorded from the benchmark's own
// files around each call into a layer, kept in per-thread memory, and
// written as Chrome trace-event JSON when the run ends.
#ifndef PERFBENCH_DRIVER_TRACE_H_
#define PERFBENCH_DRIVER_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "driver/harness.h"
#include "sampling/sampler.h"

namespace perfbench {

struct Span {
  const char* name = "";  // static string
  int64_t start_ns = 0;   // host clock, relative to the log's epoch
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t op = 0;      // op id (iteration or request run) it served
  uint32_t tid = 0;
  uint64_t edges = 0;   // sampler spans: edges sampled
  uint64_t inputs = 0;  // sampler spans: input nodes produced

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Span store. Add() appends to the calling thread's own buffer, so
/// concurrent sampler calls never contend; a lock is taken only the first
/// time a thread records. The current parent is published by the thread
/// that opens an op span and read by whichever thread samples inside it.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t Now() const;
  void Add(const Span& span);

  void SetCurrent(uint64_t parent, uint64_t op) {
    current_parent_.store(parent, std::memory_order_relaxed);
    current_op_.store(op, std::memory_order_relaxed);
  }
  uint64_t current_parent() const {
    return current_parent_.load(std::memory_order_relaxed);
  }
  uint64_t current_op() const {
    return current_op_.load(std::memory_order_relaxed);
  }

  /// Every span recorded so far, ordered by start time.
  std::vector<Span> Collect() const;
  /// Writes the spans as Chrome trace-event JSON ("X" events, µs).
  bool WriteChromeJson(const std::string& path) const;

 private:
  struct ThreadBuffer {
    uint32_t tid = 0;
    std::vector<Span> spans;
  };
  ThreadBuffer* Buffer();

  Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> current_parent_{0};
  std::atomic<uint64_t> current_op_{0};
  mutable std::mutex mu_;  // guards buffers_ (the list, not the contents)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  uint64_t generation_;
};

/// Records one span on scope exit; a null log makes it a no-op. When
/// `publish` is set the span becomes the current parent while open.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, uint64_t op, bool publish);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog* log_;
  Span span_;
  bool publish_;
  uint64_t outer_op_ = 0;
};

/// Sampler decorator used only in traced runs: times every SampleAtInto
/// on whichever thread runs it and records it under the current op span.
/// It forwards concurrent_safe() unchanged, so the loader parallelises
/// exactly as it would over the bare sampler.
class TracedSampler : public gids::sampling::Sampler {
 public:
  TracedSampler(gids::sampling::Sampler* inner, SpanLog* log)
      : inner_(inner), log_(log) {}

  std::string_view name() const override { return inner_->name(); }
  int num_layers() const override { return inner_->num_layers(); }
  bool concurrent_safe() const override { return inner_->concurrent_safe(); }
  void SampleAtInto(std::span<const gids::graph::NodeId> seeds,
                    uint64_t iteration,
                    gids::sampling::MiniBatch* out) override;

 private:
  gids::sampling::Sampler* inner_;
  SpanLog* log_;
};

/// Totals over a span list for one measured phase.
struct SpanTotals {
  double op_ms = 0;       // sum of op spans (Next / Run)
  double sampler_ms = 0;  // sum of sampler spans under those op spans
  uint64_t edges = 0;
  uint64_t inputs = 0;
};
SpanTotals SumOpSpans(const std::vector<Span>& spans, const char* op_name);

/// Duration of the first span named `name`, in seconds (0 if absent).
double SpanSeconds(const std::vector<Span>& spans, const char* name);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_TRACE_H_
