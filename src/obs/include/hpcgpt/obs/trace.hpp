#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "hpcgpt/json/json.hpp"

namespace hpcgpt::obs {

/// One completed span. Times are seconds relative to the sink's epoch
/// (process start), so event streams from one run are directly comparable.
///
/// Spans are request-scoped and hierarchical: every span carries the id
/// of the trace it belongs to, its own id, and its parent's id (0 = a
/// root span). The serve scheduler groups everything one
/// GenerationRequest touched — queue wait, prefill, each decode round —
/// under one trace_id; the trainer does the same per optimizer step.
struct TraceEvent {
  std::string name;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  std::uint32_t thread = 0;  ///< small per-process thread ordinal
  std::uint64_t trace_id = 0;  ///< request/step the span belongs to
  std::uint64_t span_id = 0;   ///< unique per span (process-wide)
  std::uint64_t parent_id = 0; ///< enclosing span; 0 = trace root
};

/// The propagation handle for hierarchical tracing: which trace the
/// current thread is inside, and which span new children should hang off.
/// Capture it with current_trace_context() before handing work to another
/// thread; adopt it there with TraceContextScope (or HPCGPT_TRACE_ADOPT)
/// so spans opened on the far side of the hop nest under the caller's.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;  ///< parent for spans opened under this context

  bool active() const { return trace_id != 0; }
};

/// The calling thread's current span context ({0,0} outside any span).
TraceContext current_trace_context();
/// Replaces the calling thread's context (prefer TraceContextScope).
void set_current_trace_context(TraceContext context);
/// Fresh process-unique trace id (never 0).
std::uint64_t next_trace_id();
/// Fresh process-unique span id (never 0).
std::uint64_t next_span_id();

/// RAII adopt: installs a captured context as the calling thread's
/// current one and restores the previous context on scope exit. This is
/// the receiving half of a thread hop — the sender captures
/// current_trace_context(), the pool task adopts it, and every span the
/// task opens joins the sender's trace.
class TraceContextScope {
 public:
  explicit TraceContextScope(TraceContext context)
      : previous_(current_trace_context()) {
    set_current_trace_context(context);
  }
  ~TraceContextScope() { set_current_trace_context(previous_); }
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;

 private:
  TraceContext previous_;
};

/// Bounded ring buffer of completed spans. Recording is off by default —
/// the hot paths check one relaxed atomic and skip everything else — and
/// when on, the newest `capacity` spans are kept: the buffer wraps,
/// overwriting the oldest, so a long-running server keeps a rolling
/// window instead of growing without bound. Overwrites are counted
/// (dropped_count(), mirrored in the process-wide `obs.trace.dropped`
/// counter) so a truncated trace is visible instead of silent.
class TraceSink {
 public:
  explicit TraceSink(std::size_t capacity = 4096);

  static TraceSink& global();

  void enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Drops buffered events and resizes the ring.
  void set_capacity(std::size_t capacity);
  std::size_t capacity() const;

  /// Records a completed span. The event's thread ordinal is filled in
  /// from the calling thread; ids are taken as given (0 = none).
  void record(TraceEvent event);

  /// Buffered events, oldest first (handles wraparound).
  std::vector<TraceEvent> events() const;
  /// Total record() calls since construction/clear — exceeds
  /// events().size() once the ring has wrapped.
  std::uint64_t total_recorded() const;
  /// Events lost to ring wraparound since construction/clear
  /// (total_recorded() minus the retained window).
  std::uint64_t dropped_count() const;
  void clear();

  /// JSON array of {name, ts_us, dur_us, tid, trace_id, span_id,
  /// parent_id} objects (chrome-trace-like field meanings), oldest first.
  json::Value to_json() const;

  /// Seconds since the sink's epoch, on the steady clock spans use.
  double now_seconds() const;

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::size_t capacity_;
  std::size_t next_ = 0;        ///< ring slot the next event lands in
  std::uint64_t recorded_ = 0;  ///< lifetime record() count
  std::uint64_t dropped_ = 0;   ///< events overwritten by wraparound
  std::chrono::steady_clock::time_point epoch_;
};

/// RAII scoped timer: measures from construction to destruction and
/// records into the sink — only if the sink was enabled when the span was
/// opened. With recording off, constructing a Span is one relaxed load.
///
/// An armed span joins the thread's current trace (or starts a new one
/// when there is none), allocates itself a span id, and installs itself
/// as the thread's current context for its lifetime — so nested spans
/// parent automatically, on one thread, with no plumbing.
class Span {
 public:
  explicit Span(const char* name, TraceSink& sink = TraceSink::global())
      : Span(name, true, sink) {}
  /// `armed_hint` gates recording in addition to the sink's enable flag —
  /// lets hot paths trace only the interesting fraction of their calls
  /// (e.g. prefill-shaped GEMMs but not per-token matvecs).
  Span(const char* name, bool armed_hint,
       TraceSink& sink = TraceSink::global())
      : sink_(sink), armed_(armed_hint && sink.enabled()), name_(name) {
    if (armed_) {
      start_ = sink_.now_seconds();
      parent_ = current_trace_context();
      trace_id_ =
          parent_.trace_id != 0 ? parent_.trace_id : next_trace_id();
      span_id_ = next_span_id();
      set_current_trace_context(TraceContext{trace_id_, span_id_});
    }
  }
  ~Span() {
    if (armed_) {
      TraceEvent event;
      event.name = name_;
      event.start_seconds = start_;
      event.duration_seconds = sink_.now_seconds() - start_;
      event.trace_id = trace_id_;
      event.span_id = span_id_;
      event.parent_id = parent_.span_id;
      sink_.record(std::move(event));
      set_current_trace_context(parent_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  TraceSink& sink_;
  bool armed_;
  const char* name_;
  double start_ = 0.0;
  TraceContext parent_;
  std::uint64_t trace_id_ = 0;
  std::uint64_t span_id_ = 0;
};

}  // namespace hpcgpt::obs

/// HPCGPT_TRACE("label"): opens a scoped profiling span for the rest of
/// the enclosing block, nested under the thread's current span (if any).
/// HPCGPT_TRACE_IF("label", cond): same, but also gated on `cond` — for
/// hot paths that should only trace a subset of calls.
/// HPCGPT_TRACE_ADOPT(ctx): installs a captured TraceContext for the rest
/// of the block (the receiving side of a thread hop).
/// All three are compiled out entirely (no Span, no atomic load) when the
/// build defines HPCGPT_OBS_DISABLED; otherwise a disabled sink costs one
/// relaxed load per span.
#if defined(HPCGPT_OBS_DISABLED)
#define HPCGPT_TRACE(name)
#define HPCGPT_TRACE_IF(name, cond) (void)(cond)
#define HPCGPT_TRACE_ADOPT(context) (void)(context)
#else
#define HPCGPT_OBS_CONCAT2(a, b) a##b
#define HPCGPT_OBS_CONCAT(a, b) HPCGPT_OBS_CONCAT2(a, b)
#define HPCGPT_TRACE(name) \
  ::hpcgpt::obs::Span HPCGPT_OBS_CONCAT(hpcgpt_obs_span_, __LINE__)(name)
#define HPCGPT_TRACE_IF(name, cond)                                      \
  ::hpcgpt::obs::Span HPCGPT_OBS_CONCAT(hpcgpt_obs_span_, __LINE__)(     \
      name, (cond))
#define HPCGPT_TRACE_ADOPT(context)               \
  ::hpcgpt::obs::TraceContextScope HPCGPT_OBS_CONCAT( \
      hpcgpt_obs_ctx_, __LINE__)(context)
#endif
