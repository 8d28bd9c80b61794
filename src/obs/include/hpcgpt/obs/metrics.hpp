#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "hpcgpt/json/json.hpp"

namespace hpcgpt::obs {

/// Monotonic event counter. add() is a single relaxed atomic increment,
/// cheap enough for per-GEMM-call accounting on the inference hot path.
/// No metric has a reset: a component that restarts gets a fresh
/// registry, so a sampler never sees a cumulative value go backwards.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (queue depth, active lanes). Remembers the largest
/// value ever set so peak statistics survive between snapshots.
class Gauge {
 public:
  void set(std::int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    std::int64_t prev = max_.load(std::memory_order_relaxed);
    while (v > prev &&
           !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
    }
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }
  std::int64_t max_value() const { return max_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> max_{0};
};

/// Fixed-bucket histogram. Bucket i counts observations v with
/// v <= bounds[i] (first matching bound); one overflow bucket catches the
/// rest. Observation cost is a short linear scan over the bounds plus two
/// relaxed atomic updates — no locks, safe from any thread.
class Histogram {
 public:
  /// Bounds are validated at registration: every bound must be finite and
  /// the sequence strictly ascending (no duplicates). A violation throws
  /// InvalidArgument naming the offending index instead of silently
  /// misbinning every later observation.
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  const std::vector<double>& bounds() const { return bounds_; }
  /// Count in bucket i (i == bounds().size() is the overflow bucket).
  std::uint64_t bucket_count(std::size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const {
    const std::uint64_t n = count();
    return n > 0 ? sum() / static_cast<double>(n) : 0.0;
  }
  /// Quantile estimate (q in [0,1]) by linear interpolation within the
  /// containing bucket, taking 0 as the lower edge of the first bucket.
  /// Ranks landing in the unbounded overflow bucket clamp to the last
  /// bound (the estimate cannot exceed what the buckets resolve). Returns
  /// 0 when the histogram is empty.
  double quantile(double q) const;

 private:
  std::vector<double> bounds_;                       // ascending upper bounds
  std::vector<std::atomic<std::uint64_t>> counts_;   // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// 1-2-5 log-spaced latency bounds from 1 µs to 10 s — wide enough for
/// everything from a decode round to a full fine-tune epoch.
std::span<const double> default_latency_bounds();

/// Named-metric registry. Metrics are created on first use and live for
/// the registry's lifetime, so hot paths resolve a name once (e.g. into a
/// function-local static reference) and then touch only the atomics.
///
/// `global()` is the process-wide instance the substrate layers (tensor,
/// nn, core) record into; components that need isolated accounting — one
/// InferenceServer among several, a test — own a private registry.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` applies only on first creation; later calls with the same
  /// name return the existing histogram unchanged. Empty bounds selects
  /// default_latency_bounds().
  Histogram& histogram(std::string_view name,
                       std::span<const double> bounds = {});

  /// Deterministic JSON snapshot: {"counters": {...}, "gauges":
  /// {name: {value, max}}, "histograms": {name: {count, sum, mean,
  /// p50, p95, p99, buckets: [{le, count}...]}}} with sorted keys.
  /// The p* fields are bucket-interpolated latency quantiles (see
  /// Histogram::quantile), so snapshots report latencies directly.
  json::Object snapshot() const;
  std::string snapshot_json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace hpcgpt::obs
