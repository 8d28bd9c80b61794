#include "hpcgpt/obs/telemetry.hpp"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <utility>

#include "hpcgpt/obs/export.hpp"
#include "hpcgpt/support/error.hpp"

namespace hpcgpt::obs {

namespace {

double unix_now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

std::string errno_text() { return std::strerror(errno); }

void set_socket_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - std::floor(seconds)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

/// MSG_NOSIGNAL so a peer that hung up mid-response costs an EPIPE, not
/// a process-killing SIGPIPE — the scrape-racing-shutdown case.
bool send_all(int fd, const char* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

}  // namespace

TelemetryServer::TelemetryServer(std::uint16_t port, Handler handler)
    : handler_(std::move(handler)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw Error("telemetry: socket() failed: " + errno_text());
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string why = errno_text();
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw Error("telemetry: cannot listen on 127.0.0.1:" +
                std::to_string(port) + ": " + why);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  acceptor_ = std::thread([this] { accept_loop(); });
}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::stop() {
  if (stopping_.exchange(true)) {
    if (acceptor_.joinable()) acceptor_.join();
    return;
  }
  // shutdown() on the listening socket forces a blocked accept() to
  // return; the fd itself is closed only after the thread has joined so
  // the acceptor never races a reused descriptor.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

void TelemetryServer::accept_loop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR) continue;
      break;  // listening socket gone: nothing left to accept
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    serve_connection(fd);
    ::close(fd);
  }
}

void TelemetryServer::serve_connection(int fd) {
  set_socket_timeout(fd, 2.0);

  std::string request;
  char buf[1024];
  while (request.find("\r\n\r\n") == std::string::npos &&
         request.size() < 8192) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    request.append(buf, static_cast<std::size_t>(n));
  }

  HttpResponse resp;
  const std::size_t line_end = request.find("\r\n");
  if (line_end == std::string::npos) {
    resp = HttpResponse{400, "text/plain; charset=utf-8", "bad request\n"};
  } else {
    const std::string line = request.substr(0, line_end);
    const std::size_t sp1 = line.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos) {
      resp = HttpResponse{400, "text/plain; charset=utf-8", "bad request\n"};
    } else if (line.substr(0, sp1) != "GET") {
      resp = HttpResponse{405, "text/plain; charset=utf-8",
                          "only GET is supported\n"};
    } else {
      std::string path = line.substr(sp1 + 1, sp2 - sp1 - 1);
      const std::size_t query = path.find('?');
      if (query != std::string::npos) path.resize(query);
      try {
        resp = handler_(path);
      } catch (const std::exception& e) {
        resp = HttpResponse{500, "text/plain; charset=utf-8",
                            std::string("internal error: ") + e.what() + "\n"};
      } catch (...) {
        resp = HttpResponse{500, "text/plain; charset=utf-8",
                            "internal error\n"};
      }
    }
  }

  std::string out = "HTTP/1.1 " + std::to_string(resp.status) + " " +
                    reason_phrase(resp.status) + "\r\nContent-Type: " +
                    resp.content_type + "\r\nContent-Length: " +
                    std::to_string(resp.body.size()) +
                    "\r\nConnection: close\r\n\r\n";
  out += resp.body;
  send_all(fd, out.data(), out.size());
}

HttpResult http_get(const std::string& url, double timeout_seconds) {
  require(url.rfind("http://", 0) == 0,
          "http_get: only http:// URLs are supported, got '" + url + "'");
  std::string rest = url.substr(7);
  std::string path = "/";
  const std::size_t slash = rest.find('/');
  if (slash != std::string::npos) {
    path = rest.substr(slash);
    rest.resize(slash);
  }
  std::string host = rest;
  std::string port = "80";
  const std::size_t colon = host.rfind(':');
  if (colon != std::string::npos) {
    port = host.substr(colon + 1);
    host.resize(colon);
  }
  require(!host.empty(), "http_get: empty host in '" + url + "'");

  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* info = nullptr;
  const int rc = ::getaddrinfo(host.c_str(), port.c_str(), &hints, &info);
  if (rc != 0 || info == nullptr) {
    throw Error("http_get: cannot resolve '" + host + "': " +
                ::gai_strerror(rc));
  }

  int fd = -1;
  std::string connect_error;
  for (addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    set_socket_timeout(fd, timeout_seconds);
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    connect_error = errno_text();
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(info);
  if (fd < 0) {
    throw Error("http_get: cannot connect to " + host + ":" + port + ": " +
                (connect_error.empty() ? "no usable address" : connect_error));
  }

  const std::string request = "GET " + path + " HTTP/1.1\r\nHost: " + host +
                              "\r\nConnection: close\r\nAccept: */*\r\n\r\n";
  if (!send_all(fd, request.data(), request.size())) {
    ::close(fd);
    throw Error("http_get: send failed: " + errno_text());
  }

  std::string raw;
  char buf[4096];
  while (raw.size() < (64u << 20)) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    raw.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);

  const std::size_t header_end = raw.find("\r\n\r\n");
  require(header_end != std::string::npos,
          "http_get: malformed response from " + host + ":" + port);
  const std::size_t status_at = raw.find(' ');
  require(status_at != std::string::npos && status_at + 4 <= raw.size(),
          "http_get: malformed status line");
  HttpResult result;
  result.status = std::atoi(raw.c_str() + status_at + 1);
  result.body = raw.substr(header_end + 4);
  return result;
}

TelemetryPipeline::TelemetryPipeline(MetricsRegistry& registry,
                                     TelemetryConfig config)
    : registry_(registry),
      config_(std::move(config)),
      collector_(registry, config_.history_capacity),
      http_requests_(registry.counter("obs.telemetry.http_requests")),
      monitor_(config_.rules, config_.burn_rules, config_.latency_rules) {}

TelemetryPipeline::~TelemetryPipeline() { stop(); }

void TelemetryPipeline::start() {
  if (!running_ && config_.sample_interval_seconds > 0.0) {
    // The first sample is taken here rather than on the sampling thread,
    // so health() and /healthz carry every rule as soon as start()
    // returns, however late the thread is first scheduled.
    tick();
    running_ = true;
    stop_requested_ = false;
    thread_ = std::thread([this] {
      const auto period =
          std::chrono::duration<double>(config_.sample_interval_seconds);
      std::unique_lock<std::mutex> lock(stop_mutex_);
      while (!stop_cv_.wait_for(lock, period,
                                [this] { return stop_requested_; })) {
        lock.unlock();
        tick();
        lock.lock();
      }
    });
  }
  if (http_ == nullptr && config_.metrics_port >= 0) {
    http_ = std::make_unique<TelemetryServer>(
        static_cast<std::uint16_t>(config_.metrics_port),
        [this](const std::string& path) { return route(path); });
  }
}

void TelemetryPipeline::stop() {
  if (http_ != nullptr) http_->stop();
  if (running_) {
    {
      std::lock_guard<std::mutex> lock(stop_mutex_);
      stop_requested_ = true;
    }
    stop_cv_.notify_all();
    if (thread_.joinable()) thread_.join();
    running_ = false;
  }
}

void TelemetryPipeline::tick() {
  const double now = unix_now_seconds();
  const json::Object snapshot = collector_.tick(now);
  std::lock_guard<std::mutex> lock(mutex_);
  report_ = monitor_.evaluate(snapshot, collector_, now);
}

HealthReport TelemetryPipeline::health() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return report_;
}

int TelemetryPipeline::http_port() const {
  return http_ != nullptr ? http_->port() : -1;
}

std::string TelemetryPipeline::metrics_text() const {
  return prometheus_text(registry_.snapshot());
}

std::string TelemetryPipeline::snapshot_json() const {
  return registry_.snapshot_json();
}

std::string TelemetryPipeline::history_json() const {
  json::Object root = collector_.history_json();
  root["interval_seconds"] = config_.sample_interval_seconds;
  root["unix_seconds"] = unix_now_seconds();
  root["ticks"] = static_cast<std::size_t>(collector_.ticks());
  root["health"] = health().to_json();
  return json::Value(std::move(root)).dump();
}

std::pair<int, std::string> TelemetryPipeline::healthz() const {
  const HealthReport report = health();
  const int status = report.shed_hint ? 503 : 200;
  return {status, json::Value(report.to_json()).dump() + "\n"};
}

HttpResponse TelemetryPipeline::route(const std::string& path) const {
  http_requests_.add(1);
  if (path == "/metrics") {
    return HttpResponse{200, "text/plain; version=0.0.4; charset=utf-8",
                        metrics_text()};
  }
  if (path == "/healthz") {
    const auto [status, body] = healthz();
    return HttpResponse{status, "application/json", body};
  }
  if (path == "/snapshot") {
    return HttpResponse{200, "application/json", snapshot_json()};
  }
  if (path == "/history" || path == "/") {
    return HttpResponse{200, "application/json", history_json()};
  }
  return HttpResponse{404, "text/plain; charset=utf-8",
                      "unknown path '" + path +
                          "' (try /metrics, /healthz, /snapshot, /history)\n"};
}

namespace {

// ---- hpcgpt top rendering ------------------------------------------------

struct SeriesView {
  bool present = false;
  std::vector<Sample> samples;  // oldest first
};

SeriesView read_series(const json::Value& history, const std::string& name) {
  SeriesView view;
  if (!history.is_object()) return view;
  const json::Object& root = history.as_object();
  const auto series_it = root.find("series");
  if (series_it == root.end() || !series_it->second.is_object()) return view;
  const json::Object& series = series_it->second.as_object();
  const auto it = series.find(name);
  if (it == series.end() || !it->second.is_object()) return view;
  const json::Object& entry = it->second.as_object();
  const auto samples_it = entry.find("samples");
  if (samples_it == entry.end() || !samples_it->second.is_array()) return view;
  view.present = true;
  for (const json::Value& pair : samples_it->second.as_array()) {
    if (!pair.is_array() || pair.as_array().size() < 2) continue;
    view.samples.push_back(Sample{pair.as_array()[0].as_number(),
                                  pair.as_array()[1].as_number()});
  }
  return view;
}

double last_value(const SeriesView& view, double fallback = 0.0) {
  return view.samples.empty() ? fallback : view.samples.back().value;
}

double window_total(const SeriesView& view) {
  double sum = 0.0;
  for (const Sample& s : view.samples) sum += s.value;
  return sum;
}

std::string format_quantity(double v) {
  char buf[64];
  if (std::fabs(v) >= 1000.0) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.1f", v);
  }
  return buf;
}

std::string format_seconds(double v) {
  char buf[64];
  if (v < 1.0) {
    std::snprintf(buf, sizeof buf, "%.1fms", v * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.2fs", v);
  }
  return buf;
}

std::string format_clock(double unix_seconds) {
  const std::time_t t = static_cast<std::time_t>(unix_seconds);
  std::tm tm_buf{};
  localtime_r(&t, &tm_buf);
  char buf[32];
  std::strftime(buf, sizeof buf, "%H:%M:%S", &tm_buf);
  return buf;
}

/// ASCII sparkline of the last `width` samples, scaled to the window max.
std::string sparkline(const std::vector<double>& values, std::size_t width) {
  static const char kRamp[] = " .:-=+*#%@";
  constexpr std::size_t kLevels = sizeof(kRamp) - 2;  // top index
  if (values.empty()) return std::string(width, ' ');
  double max = 0.0;
  const std::size_t start = values.size() > width ? values.size() - width : 0;
  for (std::size_t i = start; i < values.size(); ++i) {
    max = std::max(max, values[i]);
  }
  std::string out;
  for (std::size_t i = start; i < values.size(); ++i) {
    const double frac = max > 0.0 ? values[i] / max : 0.0;
    const std::size_t level =
        static_cast<std::size_t>(std::lround(frac * kLevels));
    out.push_back(kRamp[std::min(level, kLevels)]);
  }
  return out;
}

}  // namespace

std::string render_top_dashboard(const json::Value& history, bool color) {
  const char* kGreen = color ? "\x1b[32m" : "";
  const char* kYellow = color ? "\x1b[33m" : "";
  const char* kRed = color ? "\x1b[31m" : "";
  const char* kBold = color ? "\x1b[1m" : "";
  const char* kReset = color ? "\x1b[0m" : "";
  const std::string na = "--";

  std::string out;
  double now = 0.0;
  std::size_t ticks = 0;
  double interval = 0.0;
  if (history.is_object()) {
    const json::Object& root = history.as_object();
    const auto get_num = [&](const char* key, double fallback) {
      const auto it = root.find(key);
      return it != root.end() && it->second.is_number()
                 ? it->second.as_number()
                 : fallback;
    };
    now = get_num("unix_seconds", 0.0);
    ticks = static_cast<std::size_t>(get_num("ticks", 0.0));
    interval = get_num("interval_seconds", 0.0);
  }
  out += std::string(kBold) + "hpcgpt top" + kReset + " — tick " +
         std::to_string(ticks) + ", interval " + format_quantity(interval) +
         "s";
  if (now > 0.0) out += ", " + format_clock(now);
  out += "\n";

  // Throughput: per-sample token deltas divided by the sample spacing.
  const SeriesView generated = read_series(history, "serve.tokens.generated");
  std::vector<double> rates;
  for (std::size_t i = 1; i < generated.samples.size(); ++i) {
    const double dt = generated.samples[i].unix_seconds -
                      generated.samples[i - 1].unix_seconds;
    rates.push_back(dt > 0.0 ? generated.samples[i].value / dt : 0.0);
  }
  std::string rate_text = na;
  if (!rates.empty()) {
    // Headline: trailing-5s mean so one idle tick doesn't zero the number.
    double sum = 0.0, span = 0.0;
    for (std::size_t i = generated.samples.size(); i-- > 1;) {
      const double dt = generated.samples[i].unix_seconds -
                        generated.samples[i - 1].unix_seconds;
      if (span + dt > 5.0 && span > 0.0) break;
      sum += generated.samples[i].value;
      span += dt;
    }
    rate_text = format_quantity(span > 0.0 ? sum / span : 0.0) + " tok/s";
  }
  out += "  throughput   " + rate_text;
  if (!rates.empty()) out += "   [" + sparkline(rates, 32) + "]";
  out += "\n";

  // TTFT quantiles (point-in-time, derived by the collector).
  const SeriesView p50 = read_series(history, "serve.ttft.seconds.p50");
  const SeriesView p95 = read_series(history, "serve.ttft.seconds.p95");
  out += "  ttft         p50 " +
         (p50.present ? format_seconds(last_value(p50)) : na) + "   p95 " +
         (p95.present ? format_seconds(last_value(p95)) : na) + "\n";

  const SeriesView queue = read_series(history, "serve.queue.depth");
  const SeriesView queue_peak = read_series(history, "serve.queue.depth.peak");
  out += "  queue depth  " +
         (queue.present ? format_quantity(last_value(queue)) : na);
  if (queue_peak.present) {
    out += "   (peak " + format_quantity(last_value(queue_peak)) + ")";
  }
  if (queue.present) {
    std::vector<double> depths;
    for (const Sample& s : queue.samples) depths.push_back(s.value);
    out += "   [" + sparkline(depths, 32) + "]";
  }
  out += "\n";

  const SeriesView kv = read_series(history, "serve.kv.pages_in_use");
  out += "  kv pages     " +
         (kv.present ? format_quantity(last_value(kv)) : na) + "\n";

  const SeriesView hits = read_series(history, "serve.prefix.hits");
  const SeriesView misses = read_series(history, "serve.prefix.misses");
  if (hits.present || misses.present) {
    const double h = window_total(hits);
    const double m = window_total(misses);
    const double total = h + m;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.1f%%  (%g hit / %g lookup)",
                  total > 0.0 ? 100.0 * h / total : 0.0, h, total);
    out += "  prefix hits  " + std::string(buf) + "\n";
  } else {
    out += "  prefix hits  " + na + "\n";
  }

  // SLO lights from the embedded health report.
  out += "  slo\n";
  const json::Object* health = nullptr;
  if (history.is_object()) {
    const auto it = history.as_object().find("health");
    if (it != history.as_object().end() && it->second.is_object()) {
      health = &it->second.as_object();
    }
  }
  bool any_rule = false;
  if (health != nullptr) {
    const auto rules_it = health->find("rules");
    if (rules_it != health->end() && rules_it->second.is_array()) {
      for (const json::Value& rule : rules_it->second.as_array()) {
        if (!rule.is_object()) continue;
        any_rule = true;
        const json::Object& r = rule.as_object();
        const std::string status = r.at("status").as_string();
        const char* paint = kGreen;
        std::string light = "[ OK ]";
        if (status == "breached") {
          paint = kRed;
          light = "[FAIL]";
        } else if (status == "degraded") {
          paint = kYellow;
          light = "[WARN]";
        } else if (status == "missing_metric") {
          paint = kYellow;
          light = "[MISS]";
        }
        out += "    " + std::string(paint) + light + kReset + " " +
               r.at("rule").as_string() + "  " + r.at("detail").as_string();
        const double first_breach =
            r.at("first_breach_unix_seconds").as_number();
        if (first_breach > 0.0) {
          out += "  (first breach " + format_clock(first_breach) + ")";
        }
        out += "\n";
      }
    }
  }
  if (!any_rule) out += "    (no rules configured)\n";
  return out;
}

}  // namespace hpcgpt::obs
