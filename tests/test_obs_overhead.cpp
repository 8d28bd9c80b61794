// Perf-smoke guard for the observability substrate: driving the batched
// decode path with tracing armed (TraceSink enabled, spans recording)
// must stay within 5% of the same loop with tracing disarmed. In the
// -DHPCGPT_OBS_DISABLED=ON build the HPCGPT_TRACE macro is compiled out
// entirely, so the same test doubles as the compiled-out baseline run —
// both modes collapse to identical code and the test passes trivially,
// proving the serve/decode suites work with spans present and absent.
//
// Methodology: best-of-N wall time per mode, modes interleaved so slow
// scheduler periods hit both equally, plus retry attempts — the standard
// de-noising for a shared CFS box.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/nn/transformer.hpp"
#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/telemetry.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/support/timer.hpp"

namespace {

using namespace hpcgpt;

core::HpcGpt& shared_model() {
  static core::HpcGpt model = [] {
    core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
    spec.pretrain_steps = 0;  // untrained weights: decode math only
    return core::HpcGpt(spec, core::build_shared_tokenizer());
  }();
  return model;
}

/// One traced workload unit: 4-lane prefill + 32 batched decode rounds —
/// the exact span-instrumented path the inference server drives.
double workload_seconds() {
  core::HpcGpt& model = shared_model();
  constexpr std::size_t kLanes = 4;
  constexpr std::size_t kRounds = 32;
  const std::vector<text::TokenId> prompt(48, 65);

  std::vector<nn::DecodeState> states;
  states.reserve(kLanes);
  for (std::size_t i = 0; i < kLanes; ++i) {
    states.push_back(model.model().new_decode_state());
  }
  nn::BatchScratch scratch;
  std::vector<nn::DecodeState*> lanes;
  for (auto& s : states) lanes.push_back(&s);
  const std::vector<text::TokenId> tokens(kLanes, 65);

  Timer t;
  for (auto& s : states) (void)model.model().prefill(s, prompt);
  for (std::size_t r = 0; r < kRounds; ++r) {
    (void)model.model().decode_step_batch(lanes, tokens, scratch);
  }
  return t.seconds();
}

double best_seconds(int reps) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) best = std::min(best, workload_seconds());
  return best;
}

TEST(ObsOverhead, TracingStaysWithinFivePercentOfDisabled) {
  // Under TSan the relaxed atomics inside the span layer become runtime
  // interceptor calls, which dwarfs the real overhead (~20% observed) —
  // that lane is for the race check, not the timing budget.
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer build: timing guard is not meaningful";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer build: timing guard is not meaningful";
#endif
#endif
  obs::TraceSink& sink = obs::TraceSink::global();
  constexpr int kReps = 5;
  constexpr int kAttempts = 4;
  constexpr double kMaxSlowdown = 1.05;

  double ratio = 1e30;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    // Interleave the modes so machine-wide slow periods perturb both.
    sink.enable(false);
    const double disabled = best_seconds(kReps);
    sink.enable(true);
    const double enabled = best_seconds(kReps);
    sink.enable(false);
    sink.clear();
    ratio = enabled / disabled;
    if (ratio <= kMaxSlowdown) break;
  }
  EXPECT_LE(ratio, kMaxSlowdown)
      << "tracing-enabled decode is " << (ratio - 1.0) * 100.0
      << "% slower than disabled (budget: 5%)";
}

TEST(ObsOverhead, CollectorAndScraperStayWithinFivePercent) {
  // The telemetry extension of the same gate: the decode loop with a
  // live collector sampling the global registry every 100 ms AND a
  // scraper hammering /metrics over loopback HTTP must stay within the
  // identical 5% budget of the loop running bare. The telemetry path is
  // pull-based by design — ticks and scrapes read snapshots off the hot
  // path — so its cost must not scale with decode throughput.
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer build: timing guard is not meaningful";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer build: timing guard is not meaningful";
#endif
#endif
  constexpr int kReps = 5;
  constexpr int kAttempts = 4;
  constexpr double kMaxSlowdown = 1.05;

  double ratio = 1e30;
  for (int attempt = 0; attempt < kAttempts; ++attempt) {
    const double bare = best_seconds(kReps);

    obs::TelemetryConfig config;
    config.sample_interval_seconds = 0.1;
    config.metrics_port = 0;
    obs::TelemetryPipeline pipeline(obs::MetricsRegistry::global(),
                                    std::move(config));
    pipeline.start();
    const std::string url = "http://127.0.0.1:" +
                            std::to_string(pipeline.http_port()) +
                            "/metrics";
    std::atomic<bool> stop{false};
    std::thread scraper([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        (void)obs::http_get(url);
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    });
    const double monitored = best_seconds(kReps);
    stop.store(true);
    scraper.join();
    pipeline.stop();

    ratio = monitored / bare;
    if (ratio <= kMaxSlowdown) break;
  }
  EXPECT_LE(ratio, kMaxSlowdown)
      << "decode under an active collector + scraper is "
      << (ratio - 1.0) * 100.0 << "% slower than bare (budget: 5%)";
}

}  // namespace
