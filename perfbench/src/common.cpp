#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "hpcgpt/tensor/kernels.hpp"

#ifndef HPCGPT_PERFBENCH_COMPILER
#define HPCGPT_PERFBENCH_COMPILER "unknown"
#endif
#ifndef HPCGPT_PERFBENCH_BUILD_TYPE
#define HPCGPT_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

// The cross-workload metric names of BENCHMARK.json, with their units.
// Every run reports every name; run.py checks these lists against the
// file.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"peak_rss_mib", "MiB"},
    {"latency_p50_ms", "ms"},
    {"ms_per_token_p50", "ms"},
    {"ops_per_s", "1/s"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"text.encode_us_per_prompt", "us"},
    {"retrieval.query_us_mean", "us"},
    {"retrieval.query_us_p99", "us"},
    {"retrieval.postings_decoded_per_query", "count"},
    {"retrieval.docs_scored_per_query", "count"},
    {"serve.submit_us_p50", "us"},
    {"serve.rag_us_mean", "us"},
    {"serve.queue_wait_ms_mean", "ms"},
    {"serve.busy_share", "share"},
    {"serve.round_ms_mean", "ms"},
    {"serve.batch_occupancy_mean", "count"},
    {"serve.queue_depth_peak", "count"},
    {"serve.kv_pages_peak", "count"},
    {"serve.prefix_hit_rate", "share"},
    {"serve.prefix_reused_token_share", "share"},
    {"serve.request_queue_share", "share"},
    {"serve.request_prefix_lookup_share", "share"},
    {"serve.request_prefill_share", "share"},
    {"serve.request_decode_share", "share"},
    {"serve.request_unattributed_share", "share"},
    {"serve.trace_closure_error", "share"},
    {"nn.prefill_us_per_token", "us"},
    {"nn.prefill_tokens", "count"},
    {"nn.decode_round_us_mean", "us"},
    {"nn.decode_us_per_lane_step", "us"},
    {"nn.kv_occupancy_mean", "count"},
    {"nn.train.worker_step_ms_mean", "ms"},
    {"nn.train.reduce_ms_mean", "ms"},
    {"nn.train.optimizer_ms_mean", "ms"},
    {"nn.train.workers", "count"},
    {"tensor.gemm_gflop_per_output_token", "GFLOP"},
    {"tensor.gemm_gflop_per_train_token", "GFLOP"},
    {"tensor.gemm_gflops", "GFLOP/s"},
    {"analysis.cache_hit_rate", "share"},
    {"analysis.verify_ms_mean", "ms"},
    {"analysis.miss_us_mean", "us"},
    {"analysis.evictions", "count"},
    {"minilang.parse_us_per_function", "us"},
    {"obs.collector_tick_ms_mean", "ms"},
    {"obs.scrape_ms_p99", "ms"},
    {"obs.trace_overhead_share", "share"},
    {"obs.trace_dropped", "count"},
    {"bench.latency_p99_ms", "ms"},
};

std::vector<Metric> zeroed(
    const std::vector<std::pair<const char*, const char*>>& table) {
  std::vector<Metric> out;
  out.reserve(table.size());
  for (const auto& [name, unit] : table) out.push_back({name, 0.0, unit});
  return out;
}

void set_metric(std::vector<Metric>& metrics, const std::string& name,
                double value) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m.value = std::isfinite(value) ? value : 0.0;
      return;
    }
  }
  throw std::logic_error("perfbench: unknown metric " + name);
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

}  // namespace

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Report::Report()
    : end_to_end_(zeroed(kEndToEnd)), per_layer_(zeroed(kPerLayer)) {}

void Report::e2e(const std::string& name, double value) {
  set_metric(end_to_end_, name, value);
}

void Report::layer(const std::string& name, double value) {
  set_metric(per_layer_, name, value);
}

void Report::detail(const std::string& name, double value,
                    const std::string& unit) {
  details_.push_back({name, value, unit});
}

void Report::check(const std::string& name, bool ok, const std::string& what) {
  std::printf("check %-34s %s%s%s\n", name.c_str(), ok ? "ok" : "FAILED",
              what.empty() ? "" : "  ", what.c_str());
  if (!ok) correct = false;
}

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(samples.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

double p50(std::vector<double> samples) { return quantile(std::move(samples), 0.5); }

namespace {

std::vector<std::vector<double>> split(const std::vector<TimedSample>& samples,
                                       double window) {
  std::vector<std::vector<double>> parts(kSubWindows);
  const double width = window / static_cast<double>(kSubWindows);
  for (const TimedSample& s : samples) {
    if (s.at < 0.0 || s.at >= window) continue;
    const auto part = std::min(kSubWindows - 1, static_cast<std::size_t>(s.at / width));
    parts[part].push_back(s.value);
  }
  return parts;
}

}  // namespace

double subwindow_median(const std::vector<TimedSample>& samples, double window,
                        double (*stat)(std::vector<double>)) {
  std::vector<double> per_part;
  for (std::vector<double>& part : split(samples, window)) {
    if (!part.empty()) per_part.push_back(stat(std::move(part)));
  }
  return median(per_part);
}

double subwindow_rate(const std::vector<TimedSample>& samples, double window) {
  const double width = window / static_cast<double>(kSubWindows);
  std::vector<double> per_part;
  for (const std::vector<double>& part : split(samples, window)) {
    per_part.push_back(static_cast<double>(part.size()) / width);
  }
  return median(per_part);
}

std::size_t usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

CoresAwake::CoresAwake() {
  for (std::size_t i = 0; i < usable_cores(); ++i) {
    spinners_.emplace_back([this] {
      sched_param param{};
      // At normal priority a spinner would take cores from the program.
      if (pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) != 0) return;
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#else
        std::this_thread::yield();
#endif
      }
    });
  }
}

CoresAwake::~CoresAwake() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::thread& t : spinners_) t.join();
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

hpcgpt::json::Object host_fingerprint(const Args& args) {
  hpcgpt::json::Object fp;
  fp["cpu_model"] = cpu_model();
  fp["isa_tier"] = std::string(hpcgpt::tensor::kernels::active().name);
  fp["usable_cores"] = usable_cores();
  fp["compiler"] = std::string(HPCGPT_PERFBENCH_COMPILER);
  fp["build_type"] = std::string(HPCGPT_PERFBENCH_BUILD_TYPE);
  fp["source"] = args.source_digest;
  return fp;
}

RegistrySnapshot::RegistrySnapshot(const hpcgpt::obs::MetricsRegistry& registry)
    : snapshot_(registry.snapshot()) {}

const hpcgpt::json::Value* RegistrySnapshot::find(
    const char* section, const std::string& name) const {
  if (!snapshot_.is_object()) return nullptr;
  const hpcgpt::json::Value* s = snapshot_.find(section);
  return s != nullptr && s->is_object() ? s->find(name) : nullptr;
}

double RegistrySnapshot::counter(const std::string& name) const {
  const hpcgpt::json::Value* v = find("counters", name);
  return v != nullptr ? v->as_number() : 0.0;
}

double RegistrySnapshot::hist_sum(const std::string& name) const {
  const hpcgpt::json::Value* v = find("histograms", name);
  return v != nullptr ? v->at("sum").as_number() : 0.0;
}

double RegistrySnapshot::hist_count(const std::string& name) const {
  const hpcgpt::json::Value* v = find("histograms", name);
  return v != nullptr ? v->at("count").as_number() : 0.0;
}

double RegistrySnapshot::gauge_value(const std::string& name) const {
  const hpcgpt::json::Value* v = find("gauges", name);
  return v != nullptr ? v->at("value").as_number() : 0.0;
}

double RegistrySnapshot::gauge_max(const std::string& name) const {
  const hpcgpt::json::Value* v = find("gauges", name);
  return v != nullptr ? v->at("max").as_number() : 0.0;
}

double RegistryWindow::hist_mean(const std::string& name) const {
  return ratio(hist_sum(name), hist_count(name));
}

double ratio(double a, double b) { return b != 0.0 ? a / b : 0.0; }

double TraceSummary::total(const std::string& name) const {
  const auto it = by_name.find(name);
  return it != by_name.end() ? it->second.total_seconds : 0.0;
}

double TraceSummary::self(const std::string& name) const {
  const auto it = by_name.find(name);
  return it != by_name.end() ? it->second.self_seconds : 0.0;
}

std::size_t TraceSummary::count(const std::string& name) const {
  const auto it = by_name.find(name);
  return it != by_name.end() ? it->second.count : 0;
}

namespace {

struct Interval {
  double start;
  double end;
};

/// `iv` minus the union of `taken` (which is kept sorted and disjoint),
/// returned as disjoint pieces; the pieces are then added to `taken`.
std::vector<Interval> claim(const Interval& iv, std::vector<Interval>& taken) {
  std::vector<Interval> pieces;
  double cursor = iv.start;
  for (const Interval& t : taken) {
    if (t.end <= cursor) continue;
    if (t.start >= iv.end) break;
    if (t.start > cursor) pieces.push_back({cursor, std::min(t.start, iv.end)});
    cursor = std::max(cursor, t.end);
    if (cursor >= iv.end) break;
  }
  if (cursor < iv.end) pieces.push_back({cursor, iv.end});
  taken.insert(taken.end(), pieces.begin(), pieces.end());
  std::sort(taken.begin(), taken.end(),
            [](const Interval& a, const Interval& b) { return a.start < b.start; });
  return pieces;
}

double length(const std::vector<Interval>& pieces) {
  double total = 0.0;
  for (const Interval& p : pieces) total += p.end - p.start;
  return total;
}

struct TreeWalker {
  const std::vector<hpcgpt::obs::TraceEvent>& events;
  const std::unordered_map<std::uint64_t, std::vector<std::size_t>>& children;
  TraceSummary& out;

  /// Attributes the span's claimed pieces: children claim (later-starting
  /// first) inside the pieces, the rest is the span's self time. Returns
  /// the self time summed over this subtree.
  double walk(std::size_t idx, const std::vector<Interval>& pieces) {
    const hpcgpt::obs::TraceEvent& e = events[idx];
    SpanTotals& totals = out.by_name[e.name];
    totals.count += 1;
    totals.total_seconds += e.duration_seconds;
    double subtree_self = 0.0;
    double covered = 0.0;
    const auto it = children.find(e.span_id);
    if (it != children.end()) {
      std::vector<std::size_t> kids = it->second;
      std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
        return events[a].start_seconds > events[b].start_seconds;
      });
      // Everything outside this span's own pieces is unavailable.
      std::vector<Interval> taken;
      double cursor = -1e300;
      for (const Interval& p : pieces) {
        taken.push_back({cursor, p.start});
        cursor = p.end;
      }
      taken.push_back({cursor, 1e300});
      for (std::size_t kid : kids) {
        const hpcgpt::obs::TraceEvent& k = events[kid];
        const std::vector<Interval> got =
            claim({k.start_seconds, k.start_seconds + k.duration_seconds}, taken);
        covered += length(got);
        subtree_self += walk(kid, got);
      }
    }
    const double self = std::max(0.0, length(pieces) - covered);
    totals.self_seconds += self;
    return subtree_self + self;
  }
};

}  // namespace

TraceSummary summarize_trace(
    const std::vector<hpcgpt::obs::TraceEvent>& events) {
  TraceSummary out;
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (events[i].span_id != 0) by_id[events[i].span_id] = i;
  }
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t parent = events[i].parent_id;
    if (parent != 0 && by_id.count(parent) != 0) {
      children[parent].push_back(i);
    } else {
      roots.push_back(i);
    }
  }
  TreeWalker walker{events, children, out};
  for (std::size_t r : roots) {
    const hpcgpt::obs::TraceEvent& e = events[r];
    const Interval whole{e.start_seconds, e.start_seconds + e.duration_seconds};
    const double before = out.self(e.name);
    const double tree_self = walker.walk(r, {whole});
    if (e.name == "serve.request") {
      out.request_roots += 1;
      out.request_seconds += e.duration_seconds;
      out.request_self_seconds += out.self(e.name) - before;
      out.request_tree_self_seconds += tree_self;
      // Direct children's claimed time (recomputed with the same rule).
      const auto it = children.find(e.span_id);
      if (it != children.end()) {
        std::vector<std::size_t> kids = it->second;
        std::sort(kids.begin(), kids.end(), [&](std::size_t a, std::size_t b) {
          return events[a].start_seconds > events[b].start_seconds;
        });
        std::vector<Interval> taken = {{-1e300, whole.start},
                                       {whole.end, 1e300}};
        for (std::size_t kid : kids) {
          const hpcgpt::obs::TraceEvent& k = events[kid];
          out.request_child_seconds[k.name] += length(claim(
              {k.start_seconds, k.start_seconds + k.duration_seconds}, taken));
        }
      }
    }
  }
  return out;
}

void arm_tracing(bool on) {
  hpcgpt::obs::TraceSink& sink = hpcgpt::obs::TraceSink::global();
  if (on) {
    // Sized for one traced window of the busiest workload with headroom;
    // obs.trace_dropped reports any wraparound.
    sink.set_capacity(std::size_t{1} << 20);
    sink.clear();
  }
  sink.enable(on);
}

void print_report(const Args& args, const Report& report) {
  std::printf("fingerprint %s\n",
              hpcgpt::json::Value(host_fingerprint(args)).dump().c_str());
  for (const Metric& m : report.details()) {
    std::printf("detail %-34s %.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  const double failed_share =
      ratio(static_cast<double>(report.failed),
            static_cast<double>(report.attempted));
  std::printf("detail %-34s %.6g share\n", "failed_share", failed_share);
  hpcgpt::json::Object metrics;
  const std::vector<Metric>& list =
      args.trace ? report.per_layer() : report.end_to_end();
  for (const Metric& m : list) {
    hpcgpt::json::Object entry;
    entry["value"] = m.value;
    entry["unit"] = m.unit;
    metrics[m.name] = std::move(entry);
  }
  hpcgpt::json::Object result;
  result["correct"] = report.correct;
  result["attempted"] = static_cast<std::size_t>(report.attempted);
  result["failed"] = static_cast<std::size_t>(report.failed);
  result["metrics"] = std::move(metrics);
  std::printf("%s\n", hpcgpt::json::Value(std::move(result)).dump().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
