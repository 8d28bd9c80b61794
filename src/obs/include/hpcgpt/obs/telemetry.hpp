#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hpcgpt/json/json.hpp"
#include "hpcgpt/obs/collector.hpp"
#include "hpcgpt/obs/slo.hpp"

namespace hpcgpt::obs {

struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
};

/// Stage 3 of the telemetry pipeline: a deliberately minimal blocking
/// HTTP/1.1 server over raw POSIX sockets — one acceptor thread, one
/// connection at a time, Connection: close — enough for a Prometheus
/// scraper or `hpcgpt top` polling once a second, with no third-party
/// dependency. Binds 127.0.0.1 only (telemetry is operator-facing, not
/// public). Port 0 asks the kernel for an ephemeral port; port() reports
/// what was bound. The handler runs on the acceptor thread, so it must
/// be thread-safe against the threads that update what it reads.
class TelemetryServer {
 public:
  /// GET-path -> response. Anything the handler throws becomes a 500.
  using Handler = std::function<HttpResponse(const std::string& path)>;

  /// Binds + listens + starts the acceptor thread; throws Error when the
  /// port cannot be bound.
  TelemetryServer(std::uint16_t port, Handler handler);
  ~TelemetryServer();
  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  int port() const { return port_; }
  /// Stops accepting, joins the thread, closes the socket. Idempotent.
  void stop();

 private:
  void accept_loop();
  void serve_connection(int fd);

  Handler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::thread acceptor_;
  std::atomic<bool> stopping_{false};
};

struct HttpResult {
  int status = 0;
  std::string body;
};

/// Minimal blocking HTTP/1.1 GET for "http://host[:port][/path]" URLs —
/// the client half of TelemetryServer, used by `hpcgpt top` and the
/// scrape bench. Throws Error on connect/parse failure; non-2xx statuses
/// are returned, not thrown.
HttpResult http_get(const std::string& url, double timeout_seconds = 5.0);

struct TelemetryConfig {
  /// Master switch (serve integration constructs the pipeline only when
  /// set; the CLI sets it via --metrics-port).
  bool enabled = false;
  /// Pipeline tick period; <= 0 means no sampling thread (manual tick(),
  /// how the deterministic tests drive the pipeline).
  double sample_interval_seconds = 0.1;
  std::size_t history_capacity = 600;
  /// >= 0 starts a TelemetryServer (0 = ephemeral port); < 0 runs the
  /// pipeline headless.
  int metrics_port = -1;
  std::vector<SloRule> rules;
  std::vector<BurnRateRule> burn_rules;
  std::vector<LatencyBurnRule> latency_rules;
};

/// The assembled live-monitoring pipeline: collector (stage 1) + SLO
/// monitor (stage 2) + optional HTTP exposition (stage 3) over one
/// MetricsRegistry. The pipeline's loop is the registry's only sampler:
/// each tick reads the wall clock once and takes one registry snapshot,
/// which the collector appends to its rings and the monitor evaluates
/// the rule set against. The resulting HealthReport is readable at any
/// time (health()); its shed_hint is what /healthz turns into a 503.
///
/// HTTP routes: /metrics (Prometheus text), /healthz (200 Ok/Degraded,
/// 503 Breached), /snapshot (registry JSON), /history (collector series
/// + health + wall clock, the payload `hpcgpt top` renders).
class TelemetryPipeline {
 public:
  TelemetryPipeline(MetricsRegistry& registry, TelemetryConfig config);
  ~TelemetryPipeline();
  TelemetryPipeline(const TelemetryPipeline&) = delete;
  TelemetryPipeline& operator=(const TelemetryPipeline&) = delete;

  /// Starts the sampling thread and the HTTP server (each only when
  /// configured). With a sampling thread, the first tick runs before
  /// start() returns. Safe to call once; tick() works without start().
  void start();
  void stop();

  /// One sample + rule evaluation, callable from any thread.
  void tick();

  HealthReport health() const;

  const MetricsCollector& collector() const { return collector_; }
  /// Bound HTTP port, or -1 when running headless.
  int http_port() const;

  // Exposition payloads, also usable headless (tests, offline dumps).
  std::string metrics_text() const;
  std::string snapshot_json() const;
  std::string history_json() const;
  /// {status code, body} exactly as /healthz serves it.
  std::pair<int, std::string> healthz() const;

 private:
  HttpResponse route(const std::string& path) const;

  MetricsRegistry& registry_;
  TelemetryConfig config_;
  MetricsCollector collector_;
  Counter& http_requests_;

  mutable std::mutex mutex_;  // monitor_, report_
  SloMonitor monitor_;
  HealthReport report_;

  std::unique_ptr<TelemetryServer> http_;

  // The sampling loop: every tick feeds the collector and the monitor.
  std::thread thread_;
  std::mutex stop_mutex_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;
  bool running_ = false;
};

/// Renders one `hpcgpt top` dashboard frame from a /history payload
/// (throughput, TTFT p50/p95, queue depth, KV-page occupancy, prefix-hit
/// rate, SLO lights). Pure function of the JSON so tests can pin frames;
/// `color` adds ANSI status colors. Series the payload lacks render as
/// "--" rather than failing, so the same dashboard works against any
/// pipeline (serve, verify-serve, a saved file).
std::string render_top_dashboard(const json::Value& history, bool color);

}  // namespace hpcgpt::obs
