// Per-layer figures shared by every workload: the substrate layers that
// record into the process-wide registry (nn, tensor) and the trace-derived
// span breakdown.

#include <algorithm>
#include <cmath>
#include <string>

#include "workloads.hpp"

namespace perfbench {

std::unique_ptr<hpcgpt::core::HpcGpt> make_serving_model(
    const hpcgpt::text::BpeTokenizer& tokenizer) {
  hpcgpt::core::ModelOptions options =
      hpcgpt::core::spec_for(hpcgpt::core::BaseModel::Llama);
  options.pretrain_steps = 0;
  options.quant = hpcgpt::tensor::QuantMode::Fp32;
  return std::make_unique<hpcgpt::core::HpcGpt>(options, tokenizer);
}

void report_substrate_layers(const RegistryWindow& process, Report& report) {
  const double prefill_tokens = process.counter("nn.prefill.tokens");
  report.layer("nn.prefill_tokens", prefill_tokens);
  report.layer("nn.prefill_us_per_token",
               1e6 * ratio(process.hist_sum("nn.prefill.seconds"), prefill_tokens));
  report.layer("nn.decode_round_us_mean",
               1e6 * process.hist_mean("nn.decode.round_seconds"));
  report.layer("nn.decode_us_per_lane_step",
               1e6 * ratio(process.hist_sum("nn.decode.round_seconds"),
                           process.counter("nn.decode.lane_steps")));
  report.layer("nn.kv_occupancy_mean", process.hist_mean("nn.kv.occupancy"));

  report.layer("nn.train.worker_step_ms_mean",
               1e3 * process.hist_mean("nn.train.worker_step_seconds"));
  report.layer("nn.train.reduce_ms_mean",
               1e3 * process.hist_mean("nn.train.reduce_seconds"));
  report.layer("nn.train.optimizer_ms_mean",
               1e3 * process.hist_mean("nn.train.optimizer_seconds"));
  report.layer("nn.train.workers",
               process.counter("nn.train.steps") > 0
                   ? process.end.gauge_value("nn.train.workers")
                   : 0.0);
  report.layer("tensor.gemm_gflop_per_train_token",
               1e-9 * ratio(process.counter("tensor.gemm.flops"),
                            process.counter("nn.train.tokens")));
}

void report_serve_layers(const RegistryWindow& sw, double elapsed,
                         Report& report) {
  report.layer("serve.queue_wait_ms_mean",
               1e3 * sw.hist_mean("serve.admission.seconds"));
  report.layer("serve.busy_share", sw.hist_sum("serve.round.seconds") / elapsed);
  report.layer("serve.round_ms_mean", 1e3 * sw.hist_mean("serve.round.seconds"));
  report.layer("serve.batch_occupancy_mean",
               ratio(sw.counter("serve.rounds.occupancy_sum"),
                     sw.counter("serve.rounds.count")));
  // Gauge peaks are over the server's lifetime, which starts in set-up.
  report.layer("serve.queue_depth_peak", sw.end.gauge_max("serve.queue.depth"));
  report.layer("serve.kv_pages_peak", sw.end.gauge_max("serve.kv.pages_in_use"));
  const double hits = sw.counter("serve.prefix.hits");
  report.layer("serve.prefix_hit_rate",
               ratio(hits, hits + sw.counter("serve.prefix.misses")));
  // serve.tokens.prompt counts every admitted prompt token, reused or
  // prefilled.
  report.layer("serve.prefix_reused_token_share",
               ratio(sw.counter("serve.prefix.tokens_reused"),
                     sw.counter("serve.tokens.prompt")));
  report.layer("obs.collector_tick_ms_mean",
               1e3 * sw.hist_mean("obs.collector.tick_seconds"));
}

void report_trace_layers(const TraceSummary& trace,
                         double measured_request_seconds,
                         double traced_gemm_flops, double trace_dropped,
                         Report& report) {
  report.layer("obs.trace_dropped", trace_dropped);
  std::size_t spans = 0;
  for (const auto& [name, totals] : trace.by_name) spans += totals.count;
  report.detail("trace_spans", static_cast<double>(spans), "count");
  report.layer("serve.rag_us_mean",
               1e6 * ratio(trace.total("serve.rag"),
                           static_cast<double>(trace.count("serve.rag"))));
  report.layer("analysis.miss_us_mean",
               1e6 * ratio(trace.total("analysis.function"),
                           static_cast<double>(trace.count("analysis.function"))));
  // Flops of every GEMM in the traced window over the self time of the
  // traced (m >= 16) GEMM spans. Exact when every GEMM is prefill- or
  // training-shaped (finetune_epoch); an upper bound where small decode
  // GEMMs run untraced.
  report.layer("tensor.gemm_gflops",
               1e-9 * ratio(traced_gemm_flops, trace.self("tensor.gemm")));

  if (trace.request_roots == 0) return;
  const double total = trace.request_seconds;
  const auto child = [&](const char* name) {
    const auto it = trace.request_child_seconds.find(name);
    return it != trace.request_child_seconds.end() ? ratio(it->second, total)
                                                   : 0.0;
  };
  report.layer("serve.request_queue_share", child("serve.queue"));
  report.layer("serve.request_prefix_lookup_share", child("serve.prefix_lookup"));
  report.layer("serve.request_prefill_share", child("serve.prefill"));
  report.layer("serve.request_decode_share", child("serve.decode.round"));
  report.layer("serve.request_unattributed_share",
               ratio(trace.request_self_seconds, total));
  // Closure: the self times of every span under the serve.request roots
  // (children, their descendants and the roots' own unattributed time)
  // against the latencies the benchmark measured for the same requests.
  const double closure =
      std::abs(trace.request_tree_self_seconds - measured_request_seconds) /
      std::max(measured_request_seconds, 1e-12);
  report.layer("serve.trace_closure_error", closure);
  report.check("trace_closure_within_5pct", closure <= 0.05,
               "sum of span self times vs measured latency, error " +
                   std::to_string(closure));
}

}  // namespace perfbench
