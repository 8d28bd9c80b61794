#include "hpcgpt/obs/metrics.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "hpcgpt/support/error.hpp"

namespace hpcgpt::obs {

Histogram::Histogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)), counts_(bounds_.size() + 1) {
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    if (!std::isfinite(bounds_[i])) {
      throw InvalidArgument("Histogram: bound " + std::to_string(i) +
                            " is not finite");
    }
    if (i > 0 && !(bounds_[i - 1] < bounds_[i])) {
      throw InvalidArgument(
          "Histogram: bounds must be strictly ascending (bound " +
          std::to_string(i) + " = " + std::to_string(bounds_[i]) +
          " does not exceed bound " + std::to_string(i - 1) + " = " +
          std::to_string(bounds_[i - 1]) + ")");
    }
  }
}

void Histogram::observe(double v) {
  // First bound >= v; past-the-end selects the overflow bucket.
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  counts_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> is C++20 but not universally lowered;
  // the CAS loop is portable and uncontended sums converge in one pass.
  double prev = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(prev, prev + v,
                                     std::memory_order_relaxed)) {
  }
}

double Histogram::quantile(double q) const {
  const std::uint64_t n = count();
  if (n == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Target rank in (0, n]; walk the cumulative distribution to the
  // containing bucket, then interpolate linearly inside it. Counts are
  // read relaxed, so a snapshot racing live observations is approximate —
  // the same contract as every other accessor here.
  const double target = std::max(q * static_cast<double>(n), 1e-12);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double c =
        static_cast<double>(counts_[i].load(std::memory_order_relaxed));
    if (c <= 0.0) continue;
    if (cumulative + c >= target) {
      if (i >= bounds_.size()) {
        // Overflow bucket: unbounded above, clamp to the last edge.
        return bounds_.empty() ? 0.0 : bounds_.back();
      }
      const double lower = i == 0 ? 0.0 : bounds_[i - 1];
      const double upper = bounds_[i];
      return lower + (upper - lower) * ((target - cumulative) / c);
    }
    cumulative += c;
  }
  return bounds_.empty() ? 0.0 : bounds_.back();
}

std::span<const double> default_latency_bounds() {
  static const std::array<double, 22> kBounds = {
      1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3,
      5e-3, 1e-2, 2e-2, 5e-2, 0.1,  0.2,  0.5,  1.0,  2.0,  5.0,  10.0};
  return kBounds;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& MetricsRegistry::histogram(std::string_view name,
                                      std::span<const double> bounds) {
  std::lock_guard lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    if (bounds.empty()) bounds = default_latency_bounds();
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(
                          std::vector<double>(bounds.begin(), bounds.end())))
             .first;
  }
  return *it->second;
}

json::Object MetricsRegistry::snapshot() const {
  std::lock_guard lock(mutex_);
  json::Object counters;
  for (const auto& [name, c] : counters_) {
    counters[name] = static_cast<std::size_t>(c->value());
  }
  json::Object gauges;
  for (const auto& [name, g] : gauges_) {
    json::Object entry;
    entry["value"] = static_cast<std::int64_t>(g->value());
    entry["max"] = static_cast<std::int64_t>(g->max_value());
    gauges[name] = std::move(entry);
  }
  json::Object histograms;
  for (const auto& [name, h] : histograms_) {
    json::Object entry;
    entry["count"] = static_cast<std::size_t>(h->count());
    entry["sum"] = h->sum();
    entry["mean"] = h->mean();
    entry["p50"] = h->quantile(0.50);
    entry["p95"] = h->quantile(0.95);
    entry["p99"] = h->quantile(0.99);
    json::Array buckets;
    for (std::size_t i = 0; i <= h->bounds().size(); ++i) {
      json::Object bucket;
      bucket["le"] = i < h->bounds().size()
                         ? json::Value(h->bounds()[i])
                         : json::Value("inf");
      bucket["count"] = static_cast<std::size_t>(h->bucket_count(i));
      buckets.push_back(std::move(bucket));
    }
    entry["buckets"] = std::move(buckets);
    histograms[name] = std::move(entry);
  }
  json::Object root;
  root["counters"] = std::move(counters);
  root["gauges"] = std::move(gauges);
  root["histograms"] = std::move(histograms);
  return root;
}

std::string MetricsRegistry::snapshot_json() const {
  return json::Value(snapshot()).dump_pretty();
}

}  // namespace hpcgpt::obs
