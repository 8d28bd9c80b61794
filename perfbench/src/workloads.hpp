#pragma once

#include <memory>

#include "common.hpp"
#include "hpcgpt/core/hpcgpt.hpp"

namespace perfbench {

/// Task-1 questions through the served RAG route, closed loop.
void run_rag_qa(const Args& args, Report& report);
/// Task-2 CI pushes (verify + classify), closed loop.
void run_race_ci(const Args& args, Report& report);
/// One SFT epoch of HpcGpt::finetune, repeated from one initial state.
void run_finetune_epoch(const Args& args, Report& report);

/// Number of complete set-ups each run times; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

/// Runs `build` kSetupRepeats times (dropping the previous result before
/// each rebuild), reports the median wall time as setup_s and returns the
/// last result.
template <typename Build>
auto timed_setup(Report& report, Build build) {
  std::vector<double> times;
  decltype(build()) state;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    state.reset();
    const Clock::time_point t0 = Clock::now();
    state = build();
    times.push_back(seconds_between(t0, Clock::now()));
  }
  report.e2e("setup_s", median(times));
  report.detail("setup_s", median(times), "s");
  return state;
}

/// The serving model of every serving workload: untrained llama_sim
/// (no pre-training steps), fp32, fixed seed.
std::unique_ptr<hpcgpt::core::HpcGpt> make_serving_model(
    const hpcgpt::text::BpeTokenizer& tokenizer);

/// Per-layer figures read from the process-wide registry (nn, tensor) over
/// a window; shared by every workload so idle layers read 0 the same way.
void report_substrate_layers(const RegistryWindow& process, Report& report);

/// Per-layer figures from an InferenceServer's registry over a window
/// (`elapsed` seconds of wall time).
void report_serve_layers(const RegistryWindow& serve, double elapsed,
                         Report& report);

/// Trace-derived per-layer figures (span self times, serve.request
/// breakdown, closure against the requests' measured latencies) plus
/// obs.trace_dropped.
void report_trace_layers(const TraceSummary& trace,
                         double measured_request_seconds,
                         double traced_gemm_flops, double trace_dropped,
                         Report& report);

}  // namespace perfbench
