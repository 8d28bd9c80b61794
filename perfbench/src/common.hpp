#pragma once

// Shared pieces of the end-to-end benchmark: command-line arguments, the
// result record every workload fills in, exact-sample statistics, the host
// fingerprint, registry windows (counter / histogram sum+count deltas) and
// span self-time analysis over the global trace sink.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/json/json.hpp"
#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string source_digest = "unknown";
};

/// One named value with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports. `end_to_end` and `per_layer` use the fixed
/// cross-workload names of BENCHMARK.json (every workload fills every
/// name; a layer a workload leaves idle reads 0). `detail` carries the
/// workload's own end-to-end names (gen_latency_p50_ms, units_per_s, ...)
/// for the human-readable part of the output.
class Report {
 public:
  Report();

  void e2e(const std::string& name, double value);
  void layer(const std::string& name, double value);
  void detail(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check; a failed check makes the run incorrect.
  void check(const std::string& name, bool ok, const std::string& what = "");

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  const std::vector<Metric>& end_to_end() const { return end_to_end_; }
  const std::vector<Metric>& per_layer() const { return per_layer_; }
  const std::vector<Metric>& details() const { return details_; }

 private:
  std::vector<Metric> end_to_end_;
  std::vector<Metric> per_layer_;
  std::vector<Metric> details_;
};

// ---- exact-sample statistics -------------------------------------------

/// Linear-interpolated quantile of the samples (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> samples, double q);
double mean(const std::vector<double>& samples);
double median(std::vector<double> samples);

/// One sample of an operation: when it started (seconds into the window)
/// and its value.
struct TimedSample {
  double at = 0.0;
  double value = 0.0;
};

/// Splits [0, window) into kSubWindows equal parts, applies `stat` to the
/// values of the samples that started in each part, and returns the median
/// over the parts. A transient slowdown of the host then moves one part,
/// not the figure.
inline constexpr std::size_t kSubWindows = 6;
double subwindow_median(const std::vector<TimedSample>& samples, double window,
                        double (*stat)(std::vector<double>));
/// Median over the same parts of (samples started in the part) / its length.
double subwindow_rate(const std::vector<TimedSample>& samples, double window);
double p50(std::vector<double> samples);

// ---- host --------------------------------------------------------------

/// Cores in this process's affinity mask (sched_getaffinity).
std::size_t usable_cores();
/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mib();
/// CPU model, active ISA tier, usable cores, compiler, build type and the
/// source digest. Two results are comparable only when every field except
/// `source` agrees.
hpcgpt::json::Object host_fingerprint(const Args& args);

/// While alive, runs one lowest-priority (SCHED_IDLE) spin thread per
/// usable core, so no core of the VM ever halts. Any other thread preempts
/// a spinner at once, so the program still gets every core it asks for;
/// what goes away is the hypervisor's wake-up of a halted virtual CPU,
/// which on a shared host takes from microseconds to milliseconds
/// depending on the neighbours' load, and made rag_qa's median latency
/// swing 5x between runs minutes apart.
class CoresAwake {
 public:
  CoresAwake();
  ~CoresAwake();
  CoresAwake(const CoresAwake&) = delete;
  CoresAwake& operator=(const CoresAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> spinners_;
};

// ---- registry windows --------------------------------------------------

/// A snapshot of one MetricsRegistry, taken at a window edge. Deltas read
/// counters and histogram sum/count only; bucket-interpolated quantiles are
/// never used.
class RegistrySnapshot {
 public:
  RegistrySnapshot() = default;
  explicit RegistrySnapshot(const hpcgpt::obs::MetricsRegistry& registry);

  double counter(const std::string& name) const;
  double hist_sum(const std::string& name) const;
  double hist_count(const std::string& name) const;
  double gauge_value(const std::string& name) const;
  double gauge_max(const std::string& name) const;

 private:
  const hpcgpt::json::Value* find(const char* section,
                                  const std::string& name) const;
  hpcgpt::json::Value snapshot_;
};

/// end - start of a counter / histogram sum / histogram count.
struct RegistryWindow {
  RegistrySnapshot start;
  RegistrySnapshot end;

  double counter(const std::string& name) const {
    return end.counter(name) - start.counter(name);
  }
  double hist_sum(const std::string& name) const {
    return end.hist_sum(name) - start.hist_sum(name);
  }
  double hist_count(const std::string& name) const {
    return end.hist_count(name) - start.hist_count(name);
  }
  /// Δsum / Δcount (0 when nothing was observed).
  double hist_mean(const std::string& name) const;
};

/// a / b, or 0 when b is 0.
double ratio(double a, double b);

// ---- traces ------------------------------------------------------------

/// Per-span-name totals over a set of recorded spans. Self time of a span
/// is its duration minus the part covered by its children; children are
/// clipped to the parent, and where siblings overlap the later-starting
/// (more specific) sibling claims the overlap, so the self times of one
/// tree add up to the root's duration exactly.
struct SpanTotals {
  std::size_t count = 0;
  double total_seconds = 0.0;
  double self_seconds = 0.0;
};

struct TraceSummary {
  std::map<std::string, SpanTotals> by_name;
  /// serve.request trees: Σ root durations, Σ root self time, Σ self time
  /// over every span of those trees, and how many roots there were.
  std::size_t request_roots = 0;
  double request_seconds = 0.0;
  double request_self_seconds = 0.0;
  double request_tree_self_seconds = 0.0;
  /// serve.request direct children: time each child name claims inside its
  /// root (its subtree's self time), summed over roots.
  std::map<std::string, double> request_child_seconds;

  double total(const std::string& name) const;
  double self(const std::string& name) const;
  std::size_t count(const std::string& name) const;
};

TraceSummary summarize_trace(const std::vector<hpcgpt::obs::TraceEvent>& events);

/// Seconds into the window at which a traced run starts tracing: the last
/// quarter is traced, the rest is not, so the two give the tracing
/// overhead and the traced spans stay well inside the sink. Past the
/// window when the run is untraced.
inline double trace_start(const Args& args) {
  return args.trace ? 0.75 * args.seconds : 2.0 * args.seconds;
}

/// Arms the global trace sink with a ring large enough for one traced
/// window (and clears it), or disarms it.
void arm_tracing(bool on);

// ---- output ------------------------------------------------------------

/// Prints the human-readable lines (fingerprint, details, checks) and then
/// the one-line JSON result as the last line of standard output.
void print_report(const Args& args, const Report& report);

}  // namespace perfbench
