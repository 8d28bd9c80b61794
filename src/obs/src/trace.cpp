#include "hpcgpt/obs/trace.hpp"

#include <thread>

#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/support/error.hpp"

namespace hpcgpt::obs {

namespace {

/// Small stable per-thread ordinal (0, 1, 2, ...) so trace events carry a
/// readable thread id instead of an opaque native handle.
std::uint32_t thread_ordinal() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t id =
      next.fetch_add(1, std::memory_order_relaxed);
  return id;
}

/// The thread's current span context. Process-global (not per-sink): a
/// thread is inside at most one span stack at a time regardless of which
/// sink the spans record into.
thread_local TraceContext t_current_context;

/// Ring-wraparound losses, surfaced process-wide so a truncated trace
/// shows up in every metrics snapshot next to the export header count.
Counter& trace_dropped_counter() {
  static Counter& c = MetricsRegistry::global().counter("obs.trace.dropped");
  return c;
}

}  // namespace

TraceContext current_trace_context() { return t_current_context; }

void set_current_trace_context(TraceContext context) {
  t_current_context = context;
}

std::uint64_t next_trace_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t next_span_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

TraceSink::TraceSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      epoch_(std::chrono::steady_clock::now()) {
  ring_.reserve(capacity_);
  // Touch the drop counter eagerly so "obs.trace.dropped" is a
  // first-class member of every snapshot (value 0) from the moment a
  // sink exists — scrapers never have to special-case its absence.
  trace_dropped_counter();
}

TraceSink& TraceSink::global() {
  static TraceSink sink;
  return sink;
}

void TraceSink::set_capacity(std::size_t capacity) {
  std::lock_guard lock(mutex_);
  capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.reserve(capacity_);
  next_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

std::size_t TraceSink::capacity() const {
  std::lock_guard lock(mutex_);
  return capacity_;
}

double TraceSink::now_seconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

void TraceSink::record(TraceEvent event) {
  event.thread = thread_ordinal();
  bool overwrote = false;
  {
    std::lock_guard lock(mutex_);
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(event));
    } else {
      ring_[next_] = std::move(event);  // wraparound: overwrite the oldest
      ++dropped_;
      overwrote = true;
    }
    next_ = (next_ + 1) % capacity_;
    ++recorded_;
  }
  if (overwrote) trace_dropped_counter().add(1);
}

std::vector<TraceEvent> TraceSink::events() const {
  std::lock_guard lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < capacity_) {
    out = ring_;  // not yet wrapped: insertion order is chronological
  } else {
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % capacity_]);
    }
  }
  return out;
}

std::uint64_t TraceSink::total_recorded() const {
  std::lock_guard lock(mutex_);
  return recorded_;
}

std::uint64_t TraceSink::dropped_count() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

void TraceSink::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  next_ = 0;
  recorded_ = 0;
  dropped_ = 0;
}

json::Value TraceSink::to_json() const {
  json::Array out;
  for (const TraceEvent& e : events()) {
    json::Object o;
    o["name"] = e.name;
    o["ts_us"] = e.start_seconds * 1e6;
    o["dur_us"] = e.duration_seconds * 1e6;
    o["tid"] = static_cast<std::size_t>(e.thread);
    o["trace_id"] = static_cast<std::size_t>(e.trace_id);
    o["span_id"] = static_cast<std::size_t>(e.span_id);
    o["parent_id"] = static_cast<std::size_t>(e.parent_id);
    out.push_back(std::move(o));
  }
  return json::Value(std::move(out));
}

}  // namespace hpcgpt::obs
