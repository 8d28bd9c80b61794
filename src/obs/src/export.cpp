#include "hpcgpt/obs/export.hpp"

#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <unordered_map>

namespace hpcgpt::obs {

namespace {

/// Prometheus sample formatting: integral values print as integers (the
/// common case for counters/bucket counts), everything else with enough
/// digits to round-trip typical latencies.
std::string format_number(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string sanitize_metric_name(std::string_view name) {
  std::string out;
  out.reserve(name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  if (!out.empty() && out[0] >= '0' && out[0] <= '9') out.insert(0, 1, '_');
  return out;
}

}  // namespace

json::Value perfetto_trace(const TraceSink& sink,
                           std::string_view process_name, int pid) {
  const std::vector<TraceEvent> events = sink.events();

  json::Array trace_events;
  // Process/thread name metadata first: Perfetto labels the tracks.
  {
    json::Object meta;
    meta["ph"] = "M";
    meta["pid"] = pid;
    meta["name"] = "process_name";
    json::Object args;
    args["name"] = std::string(process_name);
    meta["args"] = std::move(args);
    trace_events.emplace_back(std::move(meta));
  }
  std::set<std::uint32_t> tids;
  for (const TraceEvent& e : events) tids.insert(e.thread);
  for (const std::uint32_t tid : tids) {
    json::Object meta;
    meta["ph"] = "M";
    meta["pid"] = pid;
    meta["tid"] = static_cast<std::size_t>(tid);
    meta["name"] = "thread_name";
    json::Object args;
    args["name"] = "thread " + std::to_string(tid);
    meta["args"] = std::move(args);
    trace_events.emplace_back(std::move(meta));
  }

  for (const TraceEvent& e : events) {
    json::Object o;
    o["ph"] = "X";  // complete event: begin + duration in one record
    o["pid"] = pid;
    o["tid"] = static_cast<std::size_t>(e.thread);
    o["name"] = e.name;
    o["ts"] = e.start_seconds * 1e6;
    o["dur"] = e.duration_seconds * 1e6;
    json::Object args;
    args["trace_id"] = static_cast<std::size_t>(e.trace_id);
    args["span_id"] = static_cast<std::size_t>(e.span_id);
    args["parent_id"] = static_cast<std::size_t>(e.parent_id);
    o["args"] = std::move(args);
    trace_events.emplace_back(std::move(o));
  }

  // Export header: the wraparound accounting travels with the trace so a
  // truncated window is visible in the artifact itself.
  json::Object other;
  other["dropped_events"] = static_cast<std::size_t>(sink.dropped_count());
  other["total_recorded"] = static_cast<std::size_t>(sink.total_recorded());

  json::Object root;
  root["traceEvents"] = std::move(trace_events);
  root["displayTimeUnit"] = "ms";
  root["otherData"] = std::move(other);
  return json::Value(std::move(root));
}

std::string perfetto_trace_json(const TraceSink& sink,
                                std::string_view process_name, int pid) {
  return perfetto_trace(sink, process_name, pid).dump();
}

std::string prometheus_text(const json::Object& snapshot) {
  std::string out;
  const auto find_object = [&](const char* key) -> const json::Object* {
    const auto it = snapshot.find(key);
    return it != snapshot.end() && it->second.is_object()
               ? &it->second.as_object()
               : nullptr;
  };

  // Each family gets the full # HELP / # TYPE preamble Prometheus
  // expects. The registry stores no per-metric help strings, so HELP
  // carries the original (pre-sanitization) dotted name — exactly the
  // detail the exposition format otherwise destroys.
  const auto family_header = [&](const std::string& prom,
                                 const std::string& original,
                                 const char* type, const char* note) {
    out += "# HELP " + prom + " hpcgpt metric " + original;
    if (note != nullptr) {
      out += " (";
      out += note;
      out += ")";
    }
    out += "\n# TYPE " + prom + " " + type + "\n";
  };

  if (const json::Object* counters = find_object("counters")) {
    for (const auto& [name, value] : *counters) {
      const std::string prom = sanitize_metric_name(name);
      family_header(prom, name, "counter", nullptr);
      out += prom + " " + format_number(value.as_number()) + "\n";
    }
  }
  if (const json::Object* gauges = find_object("gauges")) {
    for (const auto& [name, entry] : *gauges) {
      const std::string prom = sanitize_metric_name(name);
      family_header(prom, name, "gauge", nullptr);
      out += prom + " " + format_number(entry.at("value").as_number()) + "\n";
      family_header(prom + "_peak", name, "gauge", "high-water mark");
      out += prom + "_peak " + format_number(entry.at("max").as_number()) +
             "\n";
    }
  }
  if (const json::Object* histograms = find_object("histograms")) {
    for (const auto& [name, entry] : *histograms) {
      const std::string prom = sanitize_metric_name(name);
      family_header(prom, name, "histogram", nullptr);
      double cumulative = 0.0;
      for (const json::Value& bucket : entry.at("buckets").as_array()) {
        cumulative += bucket.at("count").as_number();
        const json::Value& le = bucket.at("le");
        const std::string le_text =
            le.is_string() ? "+Inf" : format_number(le.as_number());
        out += prom + "_bucket{le=\"" + le_text + "\"} " +
               format_number(cumulative) + "\n";
      }
      out += prom + "_sum " + format_number(entry.at("sum").as_number()) +
             "\n";
      out += prom + "_count " +
             format_number(entry.at("count").as_number()) + "\n";
    }
  }
  return out;
}

std::string prometheus_text(const MetricsRegistry& registry) {
  return prometheus_text(registry.snapshot());
}

std::string folded_stacks(std::span<const TraceEvent> events) {
  // Index spans by id, then charge each parent its children's time so the
  // folded weights are *self* time — the flamegraph convention.
  std::unordered_map<std::uint64_t, const TraceEvent*> by_id;
  by_id.reserve(events.size());
  for (const TraceEvent& e : events) {
    if (e.span_id != 0) by_id.emplace(e.span_id, &e);
  }
  std::unordered_map<std::uint64_t, double> child_seconds;
  for (const TraceEvent& e : events) {
    if (e.parent_id != 0 && by_id.count(e.parent_id) > 0) {
      child_seconds[e.parent_id] += e.duration_seconds;
    }
  }

  std::map<std::string, double> aggregated;  // sorted → deterministic
  std::vector<const TraceEvent*> chain;
  for (const TraceEvent& e : events) {
    double self = e.duration_seconds;
    if (e.span_id != 0) {
      const auto it = child_seconds.find(e.span_id);
      if (it != child_seconds.end()) self -= it->second;
    }
    if (self < 0.0) self = 0.0;  // clock skew between nested reads

    chain.clear();
    chain.push_back(&e);
    // Walk ancestors; the depth cap guards against id collisions ever
    // producing a cycle (32 nested spans is far beyond any real stack).
    const TraceEvent* cur = &e;
    for (int depth = 0; depth < 32 && cur->parent_id != 0; ++depth) {
      const auto it = by_id.find(cur->parent_id);
      if (it == by_id.end()) break;  // parent evicted: rooted here
      cur = it->second;
      chain.push_back(cur);
    }
    std::string path;
    for (std::size_t i = chain.size(); i-- > 0;) {
      if (!path.empty()) path += ';';
      path += chain[i]->name;
    }
    aggregated[path] += self;
  }

  std::string out;
  for (const auto& [path, seconds] : aggregated) {
    out += path;
    out += ' ';
    out += std::to_string(
        static_cast<long long>(std::llround(seconds * 1e6)));
    out += '\n';
  }
  return out;
}

std::string folded_stacks(const TraceSink& sink) {
  const std::vector<TraceEvent> events = sink.events();
  return folded_stacks(std::span<const TraceEvent>(events));
}

}  // namespace hpcgpt::obs
