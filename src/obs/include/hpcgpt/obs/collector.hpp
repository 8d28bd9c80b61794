#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "hpcgpt/json/json.hpp"
#include "hpcgpt/obs/metrics.hpp"

namespace hpcgpt::obs {

/// One time-series observation: wall-clock (unix seconds, so dashboards
/// can line samples up with external logs) plus the derived value.
struct Sample {
  double unix_seconds = 0.0;
  double value = 0.0;
};

/// Fixed-capacity ring of samples. Not thread-safe on its own — the
/// collector serializes access under its mutex. A zero-capacity ring is a
/// valid configuration that stores nothing: push() reports the drop so
/// the caller can count it instead of writing out of bounds.
class TimeSeriesRing {
 public:
  explicit TimeSeriesRing(std::size_t capacity);

  /// Returns false when the sample was dropped (capacity == 0). Once the
  /// ring is full the oldest sample is overwritten — that is windowing,
  /// not a drop, and reports true.
  bool push(Sample s);

  /// Oldest-first copy of the retained window.
  std::vector<Sample> samples() const;

  std::size_t size() const { return size_; }

 private:
  std::vector<Sample> ring_;
  std::size_t capacity_ = 0;
  std::size_t next_ = 0;  // slot the next push writes
  std::size_t size_ = 0;
};

/// Stage 1 of the telemetry pipeline: turns point-in-time
/// MetricsRegistry snapshots into bounded per-metric history. It has no
/// thread of its own; TelemetryPipeline's loop (or a test) calls tick().
///
/// Each tick() walks one registry.snapshot() and appends one sample per
/// derived series:
///   counters     -> "<name>"        kind counter_delta (value - previous
///                                   cumulative, so rates are a division
///                                   away)
///   gauges       -> "<name>"        kind gauge (current level)
///                   "<name>.peak"   kind gauge (high-water mark)
///   histograms   -> "<name>.p50/.p95/.p99"  kind quantile
///                   "<name>.count" / "<name>.sum"  kind counter_delta
///
/// Self-accounting lands in the *sampled* registry (obs.collector.ticks,
/// obs.collector.samples, obs.collector.samples_dropped counters and the
/// obs.collector.tick_seconds histogram), created eagerly so every
/// snapshot carries them from the first scrape — a dashboard never has
/// to special-case their absence.
class MetricsCollector {
 public:
  /// `capacity` is the per-series ring size: 600 samples at the
  /// pipeline's default 100 ms interval keep one minute per metric.
  explicit MetricsCollector(MetricsRegistry& registry,
                            std::size_t capacity = 600);

  /// Takes one registry snapshot, appends its samples stamped
  /// `unix_seconds`, and returns it, so the caller can evaluate rules on
  /// the same data. obs.collector.tick_seconds times the snapshot plus
  /// the ingest.
  json::Object tick(double unix_seconds);

  bool has_series(std::string_view name) const;
  /// Oldest-first window for one series; empty when the series does not
  /// exist (use has_series to distinguish "unknown" from "no data yet").
  std::vector<Sample> series(std::string_view name) const;
  std::uint64_t ticks() const { return ticks_.value(); }

  /// Deterministic dump: {"capacity", "series": {name: {"kind": ...,
  /// "samples": [[unix_seconds, value], ...]}}} with sorted series names
  /// (json::Object is map-backed).
  json::Object history_json() const;

 private:
  struct Series {
    std::string kind;
    TimeSeriesRing ring;
    double last_cumulative = 0.0;  // counter_delta bookkeeping
  };

  void ingest(const json::Object& snapshot, double unix_seconds);
  void record(std::string_view name, std::string_view kind,
              double unix_seconds, double value);

  MetricsRegistry& registry_;
  std::size_t capacity_;

  Counter& ticks_;
  Counter& samples_;
  Counter& samples_dropped_;
  Histogram& tick_seconds_;

  mutable std::mutex mutex_;
  std::map<std::string, Series, std::less<>> series_;
};

}  // namespace hpcgpt::obs
