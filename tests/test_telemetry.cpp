// Live-telemetry-pipeline tests: the time-series collector (delta
// semantics, counter-reset clamping, the zero-capacity drop accounting,
// deterministic history dumps), the SLO monitor (typed missing-metric
// handling, threshold transitions, multi-window latency burn with sticky
// first-breach timestamps), the HTTP exposition server (routes, 404s,
// /healthz flipping 200 -> 503 -> 200 across a breach), the `hpcgpt top`
// frame renderer, and the serve integration (scrapes racing shutdown,
// concurrent scrape-while-serving — a TSan workload in the sanitize
// lane).

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/json/json.hpp"
#include "hpcgpt/obs/collector.hpp"
#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/slo.hpp"
#include "hpcgpt/obs/telemetry.hpp"
#include "hpcgpt/serve/server.hpp"
#include "hpcgpt/support/error.hpp"

namespace {

using namespace hpcgpt;

// ---------------------------------------------------------------- rings

TEST(TimeSeriesRing, WrapsKeepingNewestSamples) {
  obs::TimeSeriesRing ring(3);
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(ring.push({static_cast<double>(i), static_cast<double>(i)}));
  }
  EXPECT_EQ(ring.size(), 3u);
  const std::vector<obs::Sample> samples = ring.samples();
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_DOUBLE_EQ(samples.front().value, 2.0);  // oldest retained
  EXPECT_DOUBLE_EQ(samples.back().value, 4.0);
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_LT(samples[i - 1].unix_seconds, samples[i].unix_seconds);
  }
}

TEST(TimeSeriesRing, ZeroCapacityDropsEverySample) {
  // Capacity 0 is a valid configuration that stores nothing: push()
  // reports the drop instead of writing out of bounds.
  obs::TimeSeriesRing ring(0);
  EXPECT_FALSE(ring.push({1.0, 1.0}));
  EXPECT_FALSE(ring.push({2.0, 2.0}));
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_TRUE(ring.samples().empty());
}

// ------------------------------------------------------------ collector

TEST(Collector, DerivesDeltaGaugeAndQuantileSeries) {
  obs::MetricsRegistry registry;
  obs::Counter& reqs = registry.counter("reqs");
  obs::Gauge& depth = registry.gauge("depth");
  obs::Histogram& lat =
      registry.histogram("lat", std::array<double, 2>{0.1, 1.0});

  obs::MetricsCollector collector(
      registry, obs::CollectorOptions{/*interval=*/-1.0, /*capacity=*/16});
  reqs.add(10);
  depth.set(4);
  depth.set(2);
  lat.observe(0.05);
  collector.tick();
  reqs.add(5);
  depth.set(7);
  collector.tick();

  // Counter -> per-tick deltas (the first delta is the full cumulative).
  const std::vector<obs::Sample> deltas = collector.series("reqs");
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_DOUBLE_EQ(deltas[0].value, 10.0);
  EXPECT_DOUBLE_EQ(deltas[1].value, 5.0);

  // Gauge -> level plus the ".peak" high-water companion.
  const std::vector<obs::Sample> levels = collector.series("depth");
  ASSERT_EQ(levels.size(), 2u);
  EXPECT_DOUBLE_EQ(levels[0].value, 2.0);
  EXPECT_DOUBLE_EQ(levels[1].value, 7.0);
  const std::vector<obs::Sample> peaks = collector.series("depth.peak");
  ASSERT_EQ(peaks.size(), 2u);
  EXPECT_DOUBLE_EQ(peaks[0].value, 4.0);
  EXPECT_DOUBLE_EQ(peaks[1].value, 7.0);

  // Histogram -> derived quantiles plus count/sum deltas.
  EXPECT_TRUE(collector.has_series("lat.p50"));
  EXPECT_TRUE(collector.has_series("lat.p95"));
  EXPECT_TRUE(collector.has_series("lat.p99"));
  const std::vector<obs::Sample> counts = collector.series("lat.count");
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_DOUBLE_EQ(counts[0].value, 1.0);
  EXPECT_DOUBLE_EQ(counts[1].value, 0.0);
  EXPECT_FALSE(collector.has_series("nope"));
  EXPECT_TRUE(collector.series("nope").empty());
  EXPECT_EQ(collector.ticks(), 2u);
}

TEST(Collector, CounterResetClampsDeltaToRawValue) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("c");
  obs::MetricsCollector collector(
      registry, obs::CollectorOptions{-1.0, 16});
  c.add(10);
  collector.tick();
  c.reset();  // restarted component: cumulative goes backwards
  c.add(3);
  collector.tick();
  const std::vector<obs::Sample> deltas = collector.series("c");
  ASSERT_EQ(deltas.size(), 2u);
  EXPECT_DOUBLE_EQ(deltas[0].value, 10.0);
  // The Prometheus rate() convention: on reset the raw value is the delta.
  EXPECT_DOUBLE_EQ(deltas[1].value, 3.0);
}

TEST(Collector, ZeroCapacityCountsDropsAsFirstClassCounter) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(1);
  obs::MetricsCollector collector(
      registry, obs::CollectorOptions{-1.0, /*capacity=*/0});
  collector.tick();
  EXPECT_EQ(collector.ticks(), 1u);
  EXPECT_TRUE(collector.series("c").empty());

  // Every attempted sample was dropped, and the drop counter is a
  // first-class member of the snapshot the next scrape serves.
  const json::Object snapshot = registry.snapshot();
  const json::Object& counters = snapshot.at("counters").as_object();
  ASSERT_NE(counters.find("obs.collector.samples_dropped"), counters.end());
  EXPECT_GT(counters.at("obs.collector.samples_dropped").as_number(), 0.0);
  EXPECT_DOUBLE_EQ(counters.at("obs.collector.samples").as_number(), 0.0);
}

TEST(Collector, SelfMetricsAreRegisteredEagerly) {
  obs::MetricsRegistry registry;
  obs::MetricsCollector collector(registry);
  const json::Object snapshot = registry.snapshot();
  const json::Object& counters = snapshot.at("counters").as_object();
  EXPECT_NE(counters.find("obs.collector.ticks"), counters.end());
  EXPECT_NE(counters.find("obs.collector.samples"), counters.end());
  EXPECT_NE(counters.find("obs.collector.samples_dropped"), counters.end());
  const json::Object& histograms = snapshot.at("histograms").as_object();
  EXPECT_NE(histograms.find("obs.collector.tick_seconds"), histograms.end());
}

TEST(Collector, HistoryJsonIsDeterministic) {
  obs::MetricsRegistry registry;
  registry.counter("b").add(2);
  registry.counter("a").add(1);
  registry.gauge("z").set(3);
  obs::MetricsCollector collector(
      registry, obs::CollectorOptions{-1.0, 8});
  collector.tick();

  const std::string first = json::Value(collector.history_json()).dump();
  const std::string second = json::Value(collector.history_json()).dump();
  EXPECT_EQ(first, second);  // byte-stable between reads

  const json::Value parsed = json::parse(first);
  EXPECT_DOUBLE_EQ(parsed.at("interval_seconds").as_number(), -1.0);
  EXPECT_EQ(parsed.at("capacity").as_int(), 8);
  const json::Object& series = parsed.at("series").as_object();
  ASSERT_NE(series.find("a"), series.end());
  EXPECT_EQ(series.at("a").at("kind").as_string(), "counter_delta");
  EXPECT_EQ(series.at("z").at("kind").as_string(), "gauge");
  const json::Array& samples = series.at("a").at("samples").as_array();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_DOUBLE_EQ(samples[0].as_array()[1].as_number(), 1.0);
}

TEST(Collector, BackgroundThreadTicksAtInterval) {
  obs::MetricsRegistry registry;
  registry.counter("c").add(1);
  obs::MetricsCollector collector(
      registry, obs::CollectorOptions{/*interval=*/0.005, 64});
  collector.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (collector.ticks() < 3 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  collector.stop();
  EXPECT_GE(collector.ticks(), 3u);
  EXPECT_FALSE(collector.series("c").empty());
}

// ---------------------------------------------------------- SLO monitor

TEST(Slo, RuleValidationThrowsTypedErrors) {
  obs::SloRule nameless;
  nameless.metric = "m";
  EXPECT_THROW(obs::SloMonitor({nameless}, {}, {}), InvalidArgument);

  obs::SloRule bad_window;
  bad_window.name = "r";
  bad_window.metric = "m";
  bad_window.window_seconds = 0.0;
  EXPECT_THROW(obs::SloMonitor({bad_window}, {}, {}), InvalidArgument);

  // degraded_threshold must sit on the Ok side of threshold.
  obs::SloRule inverted;
  inverted.name = "r";
  inverted.metric = "m";
  inverted.comparison = obs::Comparison::Above;
  inverted.threshold = 1.0;
  inverted.degraded_threshold = 2.0;
  EXPECT_THROW(obs::SloMonitor({inverted}, {}, {}), InvalidArgument);

  obs::BurnRateRule bad_objective;
  bad_objective.name = "b";
  bad_objective.bad_metric = "bad";
  bad_objective.good_metric = "good";
  bad_objective.objective = 1.0;
  EXPECT_THROW(obs::SloMonitor({}, {bad_objective}, {}), InvalidArgument);

  obs::LatencyBurnRule bad_windows;
  bad_windows.name = "l";
  bad_windows.histogram = "h";
  bad_windows.fast_window_seconds = 10.0;
  bad_windows.slow_window_seconds = 1.0;
  EXPECT_THROW(obs::SloMonitor({}, {}, {bad_windows}), InvalidArgument);
}

TEST(Slo, MissingMetricIsTypedPerRuleStatus) {
  // A rule naming a metric that has never existed must surface as
  // RuleStatus::MissingMetric — configuration drift is reported, never UB
  // or a crash — and weigh like Degraded overall without raising the
  // shed hint.
  obs::MetricsRegistry registry;
  obs::MetricsCollector collector(registry, obs::CollectorOptions{-1.0, 8});
  collector.tick();

  obs::SloRule threshold;
  threshold.name = "r.threshold";
  threshold.metric = "never.collected";
  obs::BurnRateRule burn;
  burn.name = "r.burn";
  burn.bad_metric = "never.bad";
  burn.good_metric = "never.good";
  obs::LatencyBurnRule latency;
  latency.name = "r.latency";
  latency.histogram = "never.hist";

  obs::SloMonitor monitor({threshold}, {burn}, {latency});
  const obs::HealthReport report =
      monitor.evaluate(registry.snapshot(), collector, 1000.0);
  ASSERT_EQ(report.rules.size(), 3u);
  for (const obs::RuleState& rule : report.rules) {
    EXPECT_EQ(rule.status, obs::RuleStatus::MissingMetric) << rule.rule;
    EXPECT_FALSE(rule.detail.empty());
  }
  EXPECT_EQ(report.overall, obs::RuleStatus::Degraded);
  EXPECT_FALSE(report.shed_hint);
  EXPECT_FALSE(report.ok());
}

TEST(Slo, ThresholdRuleWalksOkDegradedBreachedAndKeepsFirstBreach) {
  obs::MetricsRegistry registry;
  obs::Gauge& depth = registry.gauge("queue.depth");
  obs::MetricsCollector collector(registry, obs::CollectorOptions{-1.0, 64});

  obs::SloRule rule;
  rule.name = "slo.queue";
  rule.metric = "queue.depth";
  rule.window_seconds = 3600.0;
  rule.aggregation = obs::Aggregation::Last;
  rule.comparison = obs::Comparison::Above;
  rule.threshold = 10.0;
  rule.degraded_threshold = 5.0;
  obs::SloMonitor monitor({rule}, {}, {});

  const auto status_for = [&](double level, double unix_now) {
    depth.set(static_cast<std::int64_t>(level));
    collector.tick();
    return monitor.evaluate(registry.snapshot(), collector, unix_now);
  };

  EXPECT_EQ(status_for(1, 1000.0).rules[0].status, obs::RuleStatus::Ok);
  EXPECT_EQ(status_for(7, 1001.0).rules[0].status, obs::RuleStatus::Degraded);
  const obs::HealthReport breached = status_for(20, 1002.0);
  EXPECT_EQ(breached.rules[0].status, obs::RuleStatus::Breached);
  EXPECT_TRUE(breached.shed_hint);
  EXPECT_DOUBLE_EQ(breached.rules[0].first_breach_unix_seconds, 1002.0);

  // Recovery clears the status but the first-breach stamp stays sticky.
  const obs::HealthReport recovered = status_for(1, 1003.0);
  EXPECT_EQ(recovered.rules[0].status, obs::RuleStatus::Ok);
  EXPECT_FALSE(recovered.shed_hint);
  EXPECT_DOUBLE_EQ(recovered.rules[0].first_breach_unix_seconds, 1002.0);
}

TEST(Slo, LatencyBurnBreachesAndRecoversAcrossWindows) {
  // Synthetic timestamps make the multi-window recovery deterministic:
  // a batch of slow observations breaches both windows; once enough time
  // passes that the bad delta ages out of the fast then the slow window,
  // the rule walks Breached -> Degraded -> Ok.
  obs::MetricsRegistry registry;
  obs::Histogram& ttft = registry.histogram(
      "ttft", std::array<double, 3>{0.1, 0.25, 1.0});
  obs::MetricsCollector collector(registry, obs::CollectorOptions{-1.0, 64});

  obs::LatencyBurnRule rule;
  rule.name = "slo.ttft";
  rule.histogram = "ttft";
  rule.threshold_seconds = 0.25;
  rule.objective = 0.95;
  rule.fast_window_seconds = 2.0;
  rule.slow_window_seconds = 10.0;
  obs::SloMonitor monitor({}, {}, {rule});

  const auto evaluate = [&](double unix_now) {
    collector.tick();
    return monitor.evaluate(registry.snapshot(), collector, unix_now);
  };

  // No traffic yet: burn 0, Ok.
  EXPECT_EQ(evaluate(1000.0).rules[0].status, obs::RuleStatus::Ok);

  // 20 slow requests (0.9s > 0.25s threshold): every delta is bad, the
  // burn is 1.0/0.05 = 20x budget in both windows.
  for (int i = 0; i < 20; ++i) ttft.observe(0.9);
  const obs::HealthReport breached = evaluate(1001.0);
  EXPECT_EQ(breached.rules[0].status, obs::RuleStatus::Breached);
  EXPECT_TRUE(breached.shed_hint);
  EXPECT_GE(breached.rules[0].value, rule.threshold);
  EXPECT_DOUBLE_EQ(breached.rules[0].first_breach_unix_seconds, 1001.0);

  // 4s later with no new traffic the bad delta has aged out of the fast
  // window but still dominates the slow one: Degraded, shed hint off.
  const obs::HealthReport degraded = evaluate(1005.0);
  EXPECT_EQ(degraded.rules[0].status, obs::RuleStatus::Degraded);
  EXPECT_FALSE(degraded.shed_hint);

  // Fast traffic resumes outside the slow window: full recovery, and the
  // first-breach stamp stays for the post-mortem.
  for (int i = 0; i < 100; ++i) ttft.observe(0.05);
  const obs::HealthReport recovered = evaluate(1012.0);
  EXPECT_EQ(recovered.rules[0].status, obs::RuleStatus::Ok);
  EXPECT_FALSE(recovered.shed_hint);
  EXPECT_DOUBLE_EQ(recovered.rules[0].first_breach_unix_seconds, 1001.0);
}

TEST(Slo, BurnRateRuleReadsCounterDeltas) {
  obs::MetricsRegistry registry;
  obs::Counter& bad = registry.counter("req.shed");
  obs::Counter& good = registry.counter("req.done");
  obs::MetricsCollector collector(registry, obs::CollectorOptions{-1.0, 64});

  obs::BurnRateRule rule;
  rule.name = "slo.shed";
  rule.bad_metric = "req.shed";
  rule.good_metric = "req.done";
  rule.objective = 0.99;
  rule.fast_window_seconds = 60.0;
  rule.slow_window_seconds = 600.0;
  obs::SloMonitor monitor({}, {rule}, {});

  // Zero traffic: burn 0 (no division by zero), Ok.
  collector.tick();
  EXPECT_EQ(monitor.evaluate(registry.snapshot(), collector, 1000.0)
                .rules[0]
                .status,
            obs::RuleStatus::Ok);

  // 100% shed traffic burns 1.0/0.01 = 100x in both windows.
  bad.add(50);
  collector.tick();
  const obs::HealthReport report =
      monitor.evaluate(registry.snapshot(), collector, 1001.0);
  EXPECT_EQ(report.rules[0].status, obs::RuleStatus::Breached);
  EXPECT_GE(report.rules[0].value, 100.0 - 1e-9);

  // Healthy traffic dilutes the window below threshold again.
  good.add(100000);
  collector.tick();
  EXPECT_EQ(monitor.evaluate(registry.snapshot(), collector, 1002.0)
                .rules[0]
                .status,
            obs::RuleStatus::Ok);
}

// --------------------------------------------------- pipeline over HTTP

TEST(Telemetry, HealthzFlips200To503To200AcrossABreach) {
  obs::MetricsRegistry registry;
  obs::Histogram& ttft = registry.histogram(
      "ttft", std::array<double, 3>{0.1, 0.25, 1.0});

  obs::TelemetryConfig config;
  config.sample_interval_seconds = -1.0;  // manual tick: deterministic
  config.metrics_port = 0;                // ephemeral loopback port
  obs::LatencyBurnRule rule;
  rule.name = "slo.ttft";
  rule.histogram = "ttft";
  rule.threshold_seconds = 0.25;
  rule.objective = 0.95;
  rule.fast_window_seconds = 0.2;
  rule.slow_window_seconds = 0.5;
  config.latency_rules.push_back(rule);

  obs::TelemetryPipeline pipeline(registry, std::move(config));
  std::atomic<int> listener_calls{0};
  pipeline.set_health_listener(
      [&](const obs::HealthReport&) { listener_calls.fetch_add(1); });
  pipeline.start();
  ASSERT_GT(pipeline.http_port(), 0);
  const std::string base =
      "http://127.0.0.1:" + std::to_string(pipeline.http_port());

  // Healthy before any traffic.
  pipeline.tick();
  EXPECT_EQ(obs::http_get(base + "/healthz").status, 200);

  // A burst of slow TTFTs breaches the burn rule on the next tick.
  for (int i = 0; i < 20; ++i) ttft.observe(0.9);
  pipeline.tick();
  EXPECT_TRUE(pipeline.shed_hint());
  const obs::HttpResult breached = obs::http_get(base + "/healthz");
  EXPECT_EQ(breached.status, 503);
  EXPECT_NE(breached.body.find("\"shed_hint\":true"), std::string::npos);
  EXPECT_NE(breached.body.find("slo.ttft"), std::string::npos);

  // Fast traffic plus enough wall clock for the bad delta to age out of
  // both (sub-second) windows: /healthz recovers to 200.
  for (int i = 0; i < 200; ++i) ttft.observe(0.05);
  std::this_thread::sleep_for(std::chrono::milliseconds(600));
  pipeline.tick();
  EXPECT_FALSE(pipeline.shed_hint());
  EXPECT_EQ(obs::http_get(base + "/healthz").status, 200);
  EXPECT_GE(listener_calls.load(), 3);
  pipeline.stop();
}

TEST(Telemetry, HttpRoutesServeExpositionAndHistory) {
  obs::MetricsRegistry registry;
  registry.counter("req.total").add(5);
  registry.gauge("queue.depth").set(2);

  obs::TelemetryConfig config;
  config.sample_interval_seconds = -1.0;
  config.metrics_port = 0;
  obs::TelemetryPipeline pipeline(registry, std::move(config));
  pipeline.start();
  pipeline.tick();
  const std::string base =
      "http://127.0.0.1:" + std::to_string(pipeline.http_port());

  const obs::HttpResult metrics = obs::http_get(base + "/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("# TYPE req_total counter"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("req_total 5"), std::string::npos);

  const obs::HttpResult snapshot = obs::http_get(base + "/snapshot");
  EXPECT_EQ(snapshot.status, 200);
  const json::Value snap = json::parse(snapshot.body);
  EXPECT_DOUBLE_EQ(
      snap.at("counters").at("req.total").as_number(), 5.0);

  const obs::HttpResult history = obs::http_get(base + "/history");
  EXPECT_EQ(history.status, 200);
  const json::Value hist = json::parse(history.body);
  EXPECT_TRUE(hist.at("series").is_object());
  EXPECT_TRUE(hist.at("health").is_object());
  ASSERT_NE(hist.at("series").as_object().find("req.total"),
            hist.at("series").as_object().end());

  // "/" aliases /history; unknown paths are a clean 404.
  EXPECT_EQ(obs::http_get(base + "/").status, 200);
  const obs::HttpResult missing = obs::http_get(base + "/nope");
  EXPECT_EQ(missing.status, 404);
  EXPECT_NE(missing.body.find("/metrics"), std::string::npos);
  pipeline.stop();
}

// ------------------------------------------------------- top dashboard

TEST(Telemetry, TopDashboardRendersSeriesAndSloLights) {
  // Feed the renderer a real /history payload built from serve-shaped
  // metrics; the frame is a pure function of the JSON.
  obs::MetricsRegistry registry;
  obs::Counter& tokens = registry.counter("serve.tokens.generated");
  registry.gauge("serve.queue.depth").set(3);
  registry.gauge("serve.kv.pages_in_use").set(12);
  registry.counter("serve.prefix.hits").add(9);
  registry.counter("serve.prefix.misses").add(1);
  obs::Histogram& ttft = registry.histogram(
      "serve.ttft.seconds", std::array<double, 3>{0.01, 0.1, 1.0});
  ttft.observe(0.02);
  ttft.observe(0.05);

  obs::TelemetryConfig config;
  config.sample_interval_seconds = -1.0;
  obs::SloRule rule;
  rule.name = "slo.queue";
  rule.metric = "serve.queue.depth";
  rule.aggregation = obs::Aggregation::Last;
  rule.threshold = 100.0;
  config.rules.push_back(rule);
  obs::TelemetryPipeline pipeline(registry, std::move(config));
  EXPECT_EQ(pipeline.http_port(), -1);  // headless: no server configured
  tokens.add(40);
  pipeline.tick();
  tokens.add(60);
  pipeline.tick();

  const json::Value history = json::parse(pipeline.history_json());
  const std::string frame = obs::render_top_dashboard(history, false);
  EXPECT_NE(frame.find("throughput"), std::string::npos);
  EXPECT_NE(frame.find("ttft"), std::string::npos);
  EXPECT_NE(frame.find("queue depth"), std::string::npos);
  EXPECT_NE(frame.find("kv pages"), std::string::npos);
  EXPECT_NE(frame.find("prefix hits"), std::string::npos);
  EXPECT_NE(frame.find("[ OK ]"), std::string::npos);
  EXPECT_NE(frame.find("slo.queue"), std::string::npos);
  EXPECT_EQ(frame.find("\033["), std::string::npos);  // plain = no ANSI

  const std::string color = obs::render_top_dashboard(history, true);
  EXPECT_NE(color.find("\033["), std::string::npos);
}

TEST(Telemetry, TopDashboardDegradesGracefullyWithoutServeSeries) {
  // A payload with none of the serve.* series (e.g. verify-serve, or a
  // trimmed file) renders placeholders rather than failing.
  obs::MetricsRegistry registry;
  registry.counter("analysis.requests").add(1);
  obs::TelemetryConfig config;
  config.sample_interval_seconds = -1.0;
  obs::TelemetryPipeline pipeline(registry, std::move(config));
  pipeline.tick();
  const std::string frame = obs::render_top_dashboard(
      json::parse(pipeline.history_json()), false);
  EXPECT_NE(frame.find("--"), std::string::npos);
  EXPECT_NE(frame.find("(no rules configured)"), std::string::npos);
}

// ----------------------------------------------------- serve integration

core::HpcGpt& shared_model() {
  static core::HpcGpt model = [] {
    core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
    spec.pretrain_steps = 0;  // untrained weights: serving math only
    return core::HpcGpt(spec, core::build_shared_tokenizer());
  }();
  return model;
}

serve::ServeConfig telemetry_serve_config() {
  serve::ServeConfig config;
  config.max_batch = 8;
  config.max_new_tokens = 6;
  config.telemetry = serve::default_telemetry(0.25);
  config.telemetry.sample_interval_seconds = 0.01;
  config.telemetry.metrics_port = 0;
  return config;
}

TEST(Telemetry, DefaultServeRulesCoverTtftShedAndQueue) {
  const obs::TelemetryConfig config = serve::default_telemetry(0.4);
  EXPECT_TRUE(config.enabled);
  EXPECT_LT(config.metrics_port, 0);  // headless unless the CLI sets it
  ASSERT_EQ(config.latency_rules.size(), 1u);
  EXPECT_EQ(config.latency_rules[0].histogram, "serve.ttft.seconds");
  EXPECT_DOUBLE_EQ(config.latency_rules[0].threshold_seconds, 0.4);
  ASSERT_EQ(config.burn_rules.size(), 1u);
  EXPECT_EQ(config.burn_rules[0].bad_metric, "serve.requests.shed");
  ASSERT_EQ(config.rules.size(), 1u);
  EXPECT_EQ(config.rules[0].metric, "serve.queue.depth");
}

TEST(Telemetry, ScrapeRacesServerShutdown) {
  // The telemetry pipeline deliberately outlives shutdown(): a scraper
  // mid-flight while the scheduler drains must keep getting answers, and
  // a scrape after shutdown still serves the final counters.
  serve::InferenceServer server(shared_model(), telemetry_serve_config());
  ASSERT_NE(server.telemetry(), nullptr);
  const std::string base =
      "http://127.0.0.1:" + std::to_string(server.telemetry()->http_port());

  std::vector<std::future<core::GenerationResult>> results;
  for (int i = 0; i < 4; ++i) {
    core::GenerationRequest request;
    request.prompt = "Does loop " + std::to_string(i) + " race?";
    results.push_back(server.submit(std::move(request)));
  }

  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::atomic<int> failures{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      try {
        if (obs::http_get(base + "/metrics").status != 200) {
          failures.fetch_add(1);
        }
        scrapes.fetch_add(1);
      } catch (const Error&) {
        failures.fetch_add(1);
      }
    }
  });

  for (auto& r : results) r.get();
  // The four answers can arrive before the scraper's first round trip;
  // let one scrape land so that shutdown() races a scraper in its loop.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (scrapes.load() == 0 && failures.load() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  server.shutdown();  // races the scraper by construction
  stop.store(true);
  scraper.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(scrapes.load(), 0);

  // Post-shutdown the endpoint still serves the final state.
  const obs::HttpResult after = obs::http_get(base + "/metrics");
  EXPECT_EQ(after.status, 200);
  EXPECT_NE(after.body.find("serve_requests_completed"), std::string::npos);
}

TEST(Telemetry, ConcurrentScrapeWhileServingIsRaceFree) {
  // The TSan workload of this suite: requests decode, the collector
  // thread ticks at 10 ms, and three scrapers hammer every route — all
  // against one registry. Any unsynchronized read shows up in the
  // sanitize lane.
  serve::InferenceServer server(shared_model(), telemetry_serve_config());
  ASSERT_NE(server.telemetry(), nullptr);
  const std::string base =
      "http://127.0.0.1:" + std::to_string(server.telemetry()->http_port());

  std::atomic<int> failures{0};
  std::vector<std::thread> scrapers;
  static const char* kRoutes[] = {"/metrics", "/healthz", "/history"};
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        try {
          const obs::HttpResult r = obs::http_get(base + kRoutes[t % 3]);
          // /healthz may legitimately be 503 under synthetic load.
          if (r.status != 200 && r.status != 503) failures.fetch_add(1);
        } catch (const Error&) {
          failures.fetch_add(1);
        }
      }
    });
  }

  std::vector<std::future<core::GenerationResult>> results;
  for (int i = 0; i < 8; ++i) {
    core::GenerationRequest request;
    request.prompt = "Scrape race probe " + std::to_string(i);
    results.push_back(server.submit(std::move(request)));
  }
  for (auto& r : results) r.get();
  for (auto& t : scrapers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The server's stats surface carries the live health report.
  const serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.health.rules.size(), 3u);
  server.shutdown();
}

}  // namespace
