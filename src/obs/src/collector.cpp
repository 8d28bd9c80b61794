#include "hpcgpt/obs/collector.hpp"

#include <utility>

#include "hpcgpt/support/timer.hpp"

namespace hpcgpt::obs {

TimeSeriesRing::TimeSeriesRing(std::size_t capacity) : capacity_(capacity) {
  ring_.resize(capacity_);
}

bool TimeSeriesRing::push(Sample s) {
  if (capacity_ == 0) return false;
  ring_[next_] = s;
  next_ = (next_ + 1) % capacity_;
  if (size_ < capacity_) ++size_;
  return true;
}

std::vector<Sample> TimeSeriesRing::samples() const {
  std::vector<Sample> out;
  out.reserve(size_);
  // When full, next_ points at the oldest sample; when filling, the
  // window starts at slot 0.
  const std::size_t start = size_ < capacity_ ? 0 : next_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

MetricsCollector::MetricsCollector(MetricsRegistry& registry,
                                   std::size_t capacity)
    : registry_(registry),
      capacity_(capacity),
      ticks_(registry.counter("obs.collector.ticks")),
      samples_(registry.counter("obs.collector.samples")),
      samples_dropped_(registry.counter("obs.collector.samples_dropped")),
      tick_seconds_(registry.histogram("obs.collector.tick_seconds")) {}

json::Object MetricsCollector::tick(double unix_seconds) {
  Timer timer;
  json::Object snapshot = registry_.snapshot();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ingest(snapshot, unix_seconds);
  }
  ticks_.add(1);
  tick_seconds_.observe(timer.seconds());
  return snapshot;
}

void MetricsCollector::record(std::string_view name, std::string_view kind,
                              double unix_seconds, double value) {
  auto it = series_.find(name);
  if (it == series_.end()) {
    it = series_
             .emplace(std::string(name),
                      Series{std::string(kind), TimeSeriesRing(capacity_)})
             .first;
  }
  Series& s = it->second;
  if (kind == "counter_delta") {
    // Registry counters only grow (nothing resets them), so the delta is
    // never negative.
    const double cumulative = value;
    value -= s.last_cumulative;
    s.last_cumulative = cumulative;
  }
  if (s.ring.push(Sample{unix_seconds, value})) {
    samples_.add(1);
  } else {
    samples_dropped_.add(1);
  }
}

void MetricsCollector::ingest(const json::Object& snapshot,
                              double unix_seconds) {
  const auto find_object = [&](const char* key) -> const json::Object* {
    const auto it = snapshot.find(key);
    return it != snapshot.end() && it->second.is_object()
               ? &it->second.as_object()
               : nullptr;
  };

  if (const json::Object* counters = find_object("counters")) {
    for (const auto& [name, value] : *counters) {
      record(name, "counter_delta", unix_seconds, value.as_number());
    }
  }
  if (const json::Object* gauges = find_object("gauges")) {
    for (const auto& [name, entry] : *gauges) {
      record(name, "gauge", unix_seconds, entry.at("value").as_number());
      record(name + ".peak", "gauge", unix_seconds,
             entry.at("max").as_number());
    }
  }
  if (const json::Object* histograms = find_object("histograms")) {
    for (const auto& [name, entry] : *histograms) {
      record(name + ".p50", "quantile", unix_seconds,
             entry.at("p50").as_number());
      record(name + ".p95", "quantile", unix_seconds,
             entry.at("p95").as_number());
      record(name + ".p99", "quantile", unix_seconds,
             entry.at("p99").as_number());
      record(name + ".count", "counter_delta", unix_seconds,
             entry.at("count").as_number());
      record(name + ".sum", "counter_delta", unix_seconds,
             entry.at("sum").as_number());
    }
  }
}

bool MetricsCollector::has_series(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return series_.find(name) != series_.end();
}

std::vector<Sample> MetricsCollector::series(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = series_.find(name);
  if (it == series_.end()) return {};
  return it->second.ring.samples();
}

json::Object MetricsCollector::history_json() const {
  std::lock_guard<std::mutex> lock(mutex_);
  json::Object series_obj;
  for (const auto& [name, series] : series_) {
    json::Array samples;
    for (const Sample& s : series.ring.samples()) {
      json::Array pair;
      pair.push_back(s.unix_seconds);
      pair.push_back(s.value);
      samples.push_back(std::move(pair));
    }
    json::Object entry;
    entry["kind"] = series.kind;
    entry["samples"] = std::move(samples);
    series_obj[name] = std::move(entry);
  }
  json::Object root;
  root["capacity"] = capacity_;
  root["series"] = std::move(series_obj);
  return root;
}

}  // namespace hpcgpt::obs
