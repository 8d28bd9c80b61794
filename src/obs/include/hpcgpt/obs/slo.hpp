#pragma once

#include <cstddef>
#include <deque>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "hpcgpt/json/json.hpp"
#include "hpcgpt/obs/collector.hpp"

namespace hpcgpt::obs {

/// Per-rule (and overall) health. MissingMetric is the typed outcome for
/// a rule naming a metric the registry has never produced — configuration
/// drift is surfaced in the report instead of crashing the monitor, and
/// it weighs like Degraded when the overall status is folded.
enum class RuleStatus { Ok, Degraded, Breached, MissingMetric };

enum class Comparison { Above, Below };
enum class Aggregation { Last, Mean, Max, Min, Sum, RatePerSecond };

/// Threshold rule over one collector series (a gauge level, a derived
/// quantile like "serve.ttft.seconds.p95", or a counter-delta rate).
/// Samples inside the trailing window are folded with `aggregation`;
/// the rule breaches when the aggregate compares `comparison` against
/// `threshold`. `degraded_threshold` (optional, NaN = unused) marks the
/// softer early-warning boundary crossed before the breach. A window
/// with no samples is Ok (insufficient data beats a false page at
/// startup).
struct SloRule {
  std::string name;
  std::string metric;
  double window_seconds = 60.0;
  Aggregation aggregation = Aggregation::Mean;
  Comparison comparison = Comparison::Above;
  double threshold = 0.0;
  double degraded_threshold = std::numeric_limits<double>::quiet_NaN();

  void validate() const;  // throws InvalidArgument
};

/// Burn-rate rules come in two kinds that share one evaluator. Each tick
/// reads the rule's cumulative (bad, total) event counts from the
/// registry snapshot and keeps them in a bounded point history; the burn
/// over a window is the bad fraction of the events between the window's
/// start and now, divided by the error budget (1 - objective). Burn 1.0
/// consumes budget exactly as fast as the objective allows. Breached
/// when BOTH the fast and slow windows burn at >= `threshold` (the
/// standard multi-window alert: fast for responsiveness, slow to ignore
/// blips); Degraded when only one does. Events before a rule's first
/// evaluation are its baseline, not part of any window.

/// Burn rate over a bad/good counter pair (e.g. shed vs completed
/// requests).
struct BurnRateRule {
  std::string name;
  std::string bad_metric;   // counter, e.g. "serve.requests.shed"
  std::string good_metric;  // counter, e.g. "serve.requests.completed"
  double objective = 0.99;  // fraction of events allowed to be good
  double fast_window_seconds = 30.0;
  double slow_window_seconds = 300.0;
  double threshold = 1.0;  // burn multiple that pages

  void validate() const;
};

/// Burn rate over a histogram's cumulative bucket counts: an observation
/// is good when it landed in a bucket with upper bound <=
/// threshold_seconds. Windowed bad fractions recover once fast
/// observations resume — this is what lets /healthz flip 200 -> 503 ->
/// 200 across a breach and recovery.
struct LatencyBurnRule {
  std::string name;
  std::string histogram;  // e.g. "serve.ttft.seconds"
  double threshold_seconds = 0.25;
  double objective = 0.95;  // fraction of observations allowed under it
  double fast_window_seconds = 30.0;
  double slow_window_seconds = 300.0;
  double threshold = 1.0;  // burn multiple that pages

  void validate() const;
};

struct RuleState {
  std::string rule;
  std::string metric;
  RuleStatus status = RuleStatus::Ok;
  /// The evaluated quantity: the aggregate for threshold rules, the
  /// fast-window burn multiple for burn rules.
  double value = 0.0;
  double threshold = 0.0;
  /// Unix seconds of the first Breached evaluation ever (sticky across
  /// recovery — post-mortems want "when did it start"); 0 = never.
  double first_breach_unix_seconds = 0.0;
  std::string detail;
};

struct HealthReport {
  RuleStatus overall = RuleStatus::Ok;
  bool shed_hint = false;  // any rule currently Breached
  double unix_seconds = 0.0;
  std::vector<RuleState> rules;

  bool ok() const { return overall == RuleStatus::Ok; }
  json::Object to_json() const;
};

/// Stage 2 of the telemetry pipeline: evaluates the declarative rule set
/// on each tick, against the tick's registry snapshot (burn rules) and
/// the collector's history (threshold rules). Not thread-safe — the
/// pipeline serializes evaluate() under its own mutex. Rule definitions
/// are validated at construction (typed InvalidArgument), missing
/// metrics at evaluation (typed RuleStatus::MissingMetric per rule).
class SloMonitor {
 public:
  SloMonitor(std::vector<SloRule> rules, std::vector<BurnRateRule> burn_rules,
             std::vector<LatencyBurnRule> latency_rules);

  HealthReport evaluate(const json::Object& snapshot,
                        const MetricsCollector& history, double unix_now);

 private:
  /// Cumulative event counts of one burn rule at one evaluation.
  struct BurnPoint {
    double unix_seconds = 0.0;
    double bad = 0.0;
    double total = 0.0;
  };
  /// Fast- and slow-window burn multiples of one evaluation.
  struct Burn {
    double fast = 0.0;
    double slow = 0.0;
  };

  RuleState evaluate_threshold(const SloRule& rule,
                               const MetricsCollector& history,
                               double unix_now);
  RuleState evaluate_burn(const BurnRateRule& rule,
                          const json::Object& snapshot,
                          std::deque<BurnPoint>& points, double unix_now);
  RuleState evaluate_burn(const LatencyBurnRule& rule,
                          const json::Object& snapshot,
                          std::deque<BurnPoint>& points, double unix_now);
  /// The one burn evaluator: appends `now` to the rule's bounded point
  /// history, sets state.value (the fast burn) and state.status, and
  /// returns both burns for the rule's detail string.
  template <typename Rule>
  static Burn burn(const Rule& rule, std::deque<BurnPoint>& points,
                   BurnPoint now, RuleState& state);
  void finish(RuleState& state, double unix_now);

  std::vector<SloRule> rules_;
  std::vector<BurnRateRule> burn_rules_;
  std::vector<LatencyBurnRule> latency_rules_;
  /// Point history per burn rule: the BurnRateRules first, then the
  /// LatencyBurnRules, in configuration order.
  std::vector<std::deque<BurnPoint>> burn_points_;
  std::map<std::string, double> first_breach_;  // sticky, by rule name
};

}  // namespace hpcgpt::obs
