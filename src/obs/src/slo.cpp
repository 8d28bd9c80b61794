#include "hpcgpt/obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <utility>

#include "hpcgpt/support/error.hpp"

namespace hpcgpt::obs {

namespace {

/// Bound on one burn rule's point history, so a misconfigured slow
/// window cannot grow it without limit.
constexpr std::size_t kMaxBurnPoints = 8192;

/// Entry `name` of the snapshot's `kind` section ("counters" or
/// "histograms"), or nullptr when the registry has never produced it.
const json::Value* find_metric(const json::Object& snapshot, const char* kind,
                               const std::string& name) {
  const auto it = snapshot.find(kind);
  return it != snapshot.end() && it->second.is_object()
             ? it->second.find(name)
             : nullptr;
}

std::string format_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string_view rule_status_name(RuleStatus s) {
  switch (s) {
    case RuleStatus::Ok: return "ok";
    case RuleStatus::Degraded: return "degraded";
    case RuleStatus::Breached: return "breached";
    case RuleStatus::MissingMetric: return "missing_metric";
  }
  return "unknown";
}

std::string_view aggregation_name(Aggregation a) {
  switch (a) {
    case Aggregation::Last: return "last";
    case Aggregation::Mean: return "mean";
    case Aggregation::Max: return "max";
    case Aggregation::Min: return "min";
    case Aggregation::Sum: return "sum";
    case Aggregation::RatePerSecond: return "rate_per_second";
  }
  return "unknown";
}

std::string_view comparison_name(Comparison c) {
  return c == Comparison::Above ? "above" : "below";
}

}  // namespace

void SloRule::validate() const {
  require(!name.empty(), "SloRule: rule name must not be empty");
  require(!metric.empty(),
                   "SloRule '" + name + "': metric must not be empty");
  require(window_seconds > 0.0,
                   "SloRule '" + name + "': window_seconds must be > 0");
  require(std::isfinite(threshold),
                   "SloRule '" + name + "': threshold must be finite");
  if (!std::isnan(degraded_threshold)) {
    const bool ordered = comparison == Comparison::Above
                             ? degraded_threshold <= threshold
                             : degraded_threshold >= threshold;
    require(ordered, "SloRule '" + name +
                                  "': degraded_threshold must sit on the Ok "
                                  "side of threshold");
  }
}

void BurnRateRule::validate() const {
  require(!name.empty(), "BurnRateRule: rule name must not be empty");
  require(!bad_metric.empty() && !good_metric.empty(),
                   "BurnRateRule '" + name + "': metrics must not be empty");
  require(objective > 0.0 && objective < 1.0,
                   "BurnRateRule '" + name + "': objective must be in (0,1)");
  require(fast_window_seconds > 0.0 &&
                       slow_window_seconds >= fast_window_seconds,
                   "BurnRateRule '" + name +
                       "': need 0 < fast_window <= slow_window");
  require(threshold > 0.0,
                   "BurnRateRule '" + name + "': threshold must be > 0");
}

void LatencyBurnRule::validate() const {
  require(!name.empty(),
                   "LatencyBurnRule: rule name must not be empty");
  require(!histogram.empty(),
                   "LatencyBurnRule '" + name + "': histogram must not be "
                   "empty");
  require(threshold_seconds > 0.0,
                   "LatencyBurnRule '" + name +
                       "': threshold_seconds must be > 0");
  require(objective > 0.0 && objective < 1.0,
                   "LatencyBurnRule '" + name +
                       "': objective must be in (0,1)");
  require(fast_window_seconds > 0.0 &&
                       slow_window_seconds >= fast_window_seconds,
                   "LatencyBurnRule '" + name +
                       "': need 0 < fast_window <= slow_window");
  require(threshold > 0.0,
                   "LatencyBurnRule '" + name + "': threshold must be > 0");
}

json::Object HealthReport::to_json() const {
  json::Object root;
  root["overall"] = std::string(rule_status_name(overall));
  root["shed_hint"] = shed_hint;
  root["unix_seconds"] = unix_seconds;
  json::Array rule_array;
  for (const RuleState& r : rules) {
    json::Object o;
    o["rule"] = r.rule;
    o["metric"] = r.metric;
    o["status"] = std::string(rule_status_name(r.status));
    o["value"] = r.value;
    o["threshold"] = r.threshold;
    o["first_breach_unix_seconds"] = r.first_breach_unix_seconds;
    o["detail"] = r.detail;
    rule_array.push_back(std::move(o));
  }
  root["rules"] = std::move(rule_array);
  return root;
}

SloMonitor::SloMonitor(std::vector<SloRule> rules,
                       std::vector<BurnRateRule> burn_rules,
                       std::vector<LatencyBurnRule> latency_rules)
    : rules_(std::move(rules)),
      burn_rules_(std::move(burn_rules)),
      latency_rules_(std::move(latency_rules)) {
  for (const SloRule& r : rules_) r.validate();
  for (const BurnRateRule& r : burn_rules_) r.validate();
  for (const LatencyBurnRule& r : latency_rules_) r.validate();
  burn_points_.resize(burn_rules_.size() + latency_rules_.size());
}

void SloMonitor::finish(RuleState& state, double unix_now) {
  if (state.status == RuleStatus::Breached) {
    auto [it, inserted] = first_breach_.emplace(state.rule, unix_now);
    (void)inserted;
    state.first_breach_unix_seconds = it->second;
  } else {
    const auto it = first_breach_.find(state.rule);
    if (it != first_breach_.end()) state.first_breach_unix_seconds = it->second;
  }
}

RuleState SloMonitor::evaluate_threshold(const SloRule& rule,
                                         const MetricsCollector& history,
                                         double unix_now) {
  RuleState state;
  state.rule = rule.name;
  state.metric = rule.metric;
  state.threshold = rule.threshold;

  if (!history.has_series(rule.metric)) {
    state.status = RuleStatus::MissingMetric;
    state.detail = "series '" + rule.metric + "' has never been collected";
    return state;
  }
  const std::vector<Sample> samples = history.series(rule.metric);
  const double cutoff = unix_now - rule.window_seconds;
  double sum = 0.0, max = 0.0, min = 0.0, last = 0.0;
  double first_t = 0.0, last_t = 0.0;
  std::size_t n = 0;
  for (const Sample& s : samples) {
    if (s.unix_seconds < cutoff) continue;
    if (n == 0) {
      max = min = s.value;
      first_t = s.unix_seconds;
    } else {
      max = std::max(max, s.value);
      min = std::min(min, s.value);
    }
    sum += s.value;
    last = s.value;
    last_t = s.unix_seconds;
    ++n;
  }
  if (n == 0) {
    state.status = RuleStatus::Ok;
    state.detail = "insufficient data (no samples in window)";
    return state;
  }

  double value = 0.0;
  switch (rule.aggregation) {
    case Aggregation::Last: value = last; break;
    case Aggregation::Mean: value = sum / static_cast<double>(n); break;
    case Aggregation::Max: value = max; break;
    case Aggregation::Min: value = min; break;
    case Aggregation::Sum: value = sum; break;
    case Aggregation::RatePerSecond: {
      const double span = last_t - first_t;
      value = span > 0.0 ? sum / span : 0.0;
      break;
    }
  }
  state.value = value;

  const auto beyond = [&](double boundary) {
    return rule.comparison == Comparison::Above ? value > boundary
                                                : value < boundary;
  };
  if (beyond(rule.threshold)) {
    state.status = RuleStatus::Breached;
  } else if (!std::isnan(rule.degraded_threshold) &&
             beyond(rule.degraded_threshold)) {
    state.status = RuleStatus::Degraded;
  } else {
    state.status = RuleStatus::Ok;
  }
  state.detail = std::string(aggregation_name(rule.aggregation)) + "(" +
                 format_value(rule.window_seconds) + "s) = " +
                 format_value(value) + " vs " +
                 std::string(comparison_name(rule.comparison)) + " " +
                 format_value(rule.threshold);
  return state;
}

template <typename Rule>
SloMonitor::Burn SloMonitor::burn(const Rule& rule,
                                  std::deque<BurnPoint>& points,
                                  BurnPoint now, RuleState& state) {
  points.push_back(now);
  const double horizon = now.unix_seconds - 2.0 * rule.slow_window_seconds;
  while (points.size() > kMaxBurnPoints ||
         (points.size() > 1 && points[1].unix_seconds <= horizon)) {
    points.pop_front();
  }
  const auto burn_over = [&](double window) {
    // Baseline: the most recent point at or before the window start, so
    // the delta covers at least the requested span once history exists.
    const double start = now.unix_seconds - window;
    const BurnPoint* base = &points.front();
    for (const BurnPoint& p : points) {
      if (p.unix_seconds > start) break;
      base = &p;
    }
    const double d_total = now.total - base->total;
    if (d_total <= 0.0) return 0.0;
    return ((now.bad - base->bad) / d_total) / (1.0 - rule.objective);
  };
  const Burn b{burn_over(rule.fast_window_seconds),
               burn_over(rule.slow_window_seconds)};
  state.value = b.fast;
  const bool fast_hot = b.fast >= rule.threshold;
  const bool slow_hot = b.slow >= rule.threshold;
  state.status = fast_hot && slow_hot ? RuleStatus::Breached
                 : (fast_hot || slow_hot) ? RuleStatus::Degraded
                                          : RuleStatus::Ok;
  return b;
}

RuleState SloMonitor::evaluate_burn(const BurnRateRule& rule,
                                    const json::Object& snapshot,
                                    std::deque<BurnPoint>& points,
                                    double unix_now) {
  RuleState state;
  state.rule = rule.name;
  state.metric = rule.bad_metric + "/" + rule.good_metric;
  state.threshold = rule.threshold;

  const json::Value* bad = find_metric(snapshot, "counters", rule.bad_metric);
  const json::Value* good = find_metric(snapshot, "counters", rule.good_metric);
  if (bad == nullptr || good == nullptr) {
    state.status = RuleStatus::MissingMetric;
    state.detail = "counter series '" + rule.bad_metric + "' and '" +
                   rule.good_metric + "' must both exist";
    return state;
  }
  const Burn b = burn(rule, points,
                      BurnPoint{unix_now, bad->as_number(),
                                bad->as_number() + good->as_number()},
                      state);
  state.detail = "burn fast(" + format_value(rule.fast_window_seconds) +
                 "s)=" + format_value(b.fast) + " slow(" +
                 format_value(rule.slow_window_seconds) +
                 "s)=" + format_value(b.slow) + " budget=" +
                 format_value(1.0 - rule.objective);
  return state;
}

RuleState SloMonitor::evaluate_burn(const LatencyBurnRule& rule,
                                    const json::Object& snapshot,
                                    std::deque<BurnPoint>& points,
                                    double unix_now) {
  RuleState state;
  state.rule = rule.name;
  state.metric = rule.histogram;
  state.threshold = rule.threshold;

  const json::Value* hist = find_metric(snapshot, "histograms", rule.histogram);
  if (hist == nullptr) {
    state.status = RuleStatus::MissingMetric;
    state.detail = "histogram '" + rule.histogram + "' not in snapshot";
    return state;
  }
  // Cumulative good/total from the bucket counts: good = observations in
  // buckets whose upper bound is <= the latency threshold.
  double good = 0.0;
  const double total = hist->at("count").as_number();
  for (const json::Value& bucket : hist->at("buckets").as_array()) {
    const json::Value& le = bucket.at("le");
    if (le.is_string()) continue;  // +Inf overflow bucket is never "good"
    if (le.as_number() <= rule.threshold_seconds + 1e-12) {
      good += bucket.at("count").as_number();
    }
  }
  const Burn b =
      burn(rule, points, BurnPoint{unix_now, total - good, total}, state);
  state.detail = "p(>" + format_value(rule.threshold_seconds) +
                 "s) burn fast=" + format_value(b.fast) +
                 " slow=" + format_value(b.slow) + " budget=" +
                 format_value(1.0 - rule.objective);
  return state;
}

HealthReport SloMonitor::evaluate(const json::Object& snapshot,
                                  const MetricsCollector& history,
                                  double unix_now) {
  HealthReport report;
  report.unix_seconds = unix_now;
  report.rules.reserve(rules_.size() + burn_rules_.size() +
                       latency_rules_.size());

  for (const SloRule& rule : rules_) {
    report.rules.push_back(evaluate_threshold(rule, history, unix_now));
  }
  std::size_t point_index = 0;
  for (const BurnRateRule& rule : burn_rules_) {
    report.rules.push_back(evaluate_burn(
        rule, snapshot, burn_points_[point_index++], unix_now));
  }
  for (const LatencyBurnRule& rule : latency_rules_) {
    report.rules.push_back(evaluate_burn(
        rule, snapshot, burn_points_[point_index++], unix_now));
  }

  for (RuleState& state : report.rules) {
    finish(state, unix_now);
    // Fold per-rule statuses: MissingMetric weighs like Degraded (wrong
    // config deserves a yellow light, not silence and not a page).
    const auto severity = [](RuleStatus s) {
      switch (s) {
        case RuleStatus::Ok: return 0;
        case RuleStatus::Degraded: return 1;
        case RuleStatus::MissingMetric: return 1;
        case RuleStatus::Breached: return 2;
      }
      return 0;
    };
    if (severity(state.status) > severity(report.overall)) {
      report.overall = state.status == RuleStatus::MissingMetric
                           ? RuleStatus::Degraded
                           : state.status;
    }
    report.shed_hint = report.shed_hint || state.status == RuleStatus::Breached;
  }
  return report;
}

}  // namespace hpcgpt::obs
