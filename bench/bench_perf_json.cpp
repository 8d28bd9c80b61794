// Machine-readable perf trajectory for the inference engine.
//
// Runs the headline measurements of the batched-engine work — the
// blocked GEMM kernel, single-stream decode, GEMM prefill, 8- and
// 64-stream continuous-batching serving over the paged KV cache and the
// prefix-cache cold/hit TTFT pair — and writes them as BENCH_perf.json so
// every future perf PR has an apples-to-apples anchor on the same
// machine. Each metric is best-of-N wall time (the standard way to
// de-noise a shared CFS box: the minimum is the least-perturbed run).
//
// The embedded baseline block is the seed-commit measurement (commit
// 9d3442e, the mutex-serialized server and naive triple-loop GEMM),
// taken on the same machine with the seed's canonical build command
// (`cmake -B build -S . && cmake --build build -j`, i.e. default
// RelWithDebInfo). Keep it verbatim when regenerating on the same host;
// re-measure the seed when moving to new hardware.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <future>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis_service_bench.hpp"
#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/json/json.hpp"
#include "hpcgpt/nn/trainer.hpp"
#include "hpcgpt/obs/telemetry.hpp"
#include "hpcgpt/serve/server.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/support/timer.hpp"
#include "hpcgpt/tensor/kernels.hpp"
#include "hpcgpt/tensor/matrix.hpp"
#include "hpcgpt/tensor/quant.hpp"

namespace {

using namespace hpcgpt;

// Seed-commit numbers measured on this machine (see file comment).
constexpr double kBaselineGemm128Gflops = 4.98;
constexpr double kBaselineServer8StreamTokS = 9323.0;
const char* const kBaselineProvenance =
    "seed commit 9d3442e, canonical default build (RelWithDebInfo), "
    "same machine, best-of-N wall time";

double best_seconds(int reps, const std::function<void()>& fn) {
  double best = 1e30;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

double gemm128_gflops() {
  Rng rng(1);
  tensor::Matrix a(128, 128), b(128, 128), c(128, 128);
  a.randomize(rng, 1.0f);
  b.randomize(rng, 1.0f);
  const double secs = best_seconds(40, [&] { tensor::matmul(a, b, c); });
  return 2.0 * 128 * 128 * 128 / secs / 1e9;
}

// Same GEMM shape through the quantized int8 path (dynamic activation
// quantization + int8 dot + dequant epilogue counted as part of the op,
// exactly what inference pays).
double gemm128_int8_gflops() {
  Rng rng(1);
  tensor::Matrix a(128, 128), b(128, 128), c(128, 128);
  a.randomize(rng, 1.0f);
  b.randomize(rng, 1.0f);
  const tensor::QuantizedMatrix qb =
      tensor::QuantizedMatrix::quantize(b, tensor::QuantMode::Int8);
  const double secs = best_seconds(40, [&] { qb.matmul(a, c); });
  return 2.0 * 128 * 128 * 128 / secs / 1e9;
}

core::HpcGpt make_model(
    tensor::QuantMode quant = tensor::QuantMode::Fp32) {
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
  spec.pretrain_steps = 0;
  spec.quant = quant;
  return core::HpcGpt(spec, core::build_shared_tokenizer());
}

/// Steady-state single-stream decode rates for a set of quant variants
/// of the same architecture, tokens/second each.
///
/// Two deliberate choices keep the fp32:int8:fp16 *ratios* honest on a
/// shared host. The prompt ingestion runs outside the timed region (it
/// has its own prefill_tokens_per_second metric), so each number is the
/// per-token loop alone at context 64..192. And the reps interleave
/// round-robin across the variants instead of finishing one model
/// before starting the next, so a load spike degrades every variant's
/// rep rather than silently skewing whichever model it landed on —
/// best-of-reps then picks a clean window for all of them.
std::vector<double> decode_tokens_per_second(
    std::span<core::HpcGpt* const> models) {
  const std::vector<text::TokenId> prompt(64, 65);
  constexpr std::size_t kSteps = 128;
  std::vector<double> best(models.size(), 1e30);
  for (int rep = 0; rep < 10; ++rep) {
    for (std::size_t m = 0; m < models.size(); ++m) {
      nn::Transformer& net = models[m]->model();
      nn::DecodeState session = net.new_decode_state();
      net.prefill(session, prompt);
      Timer timer;
      for (std::size_t s = 0; s < kSteps; ++s) {
        (void)net.decode_step(session, 65);
      }
      best[m] = std::min(best[m], timer.seconds());
    }
  }
  for (double& b : best) b = static_cast<double>(kSteps) / b;
  return best;
}

double prefill_tokens_per_second(core::HpcGpt& model) {
  const std::vector<text::TokenId> prompt(64, 65);
  const double secs = best_seconds(16, [&] {
    nn::DecodeState session = model.model().new_decode_state();
    (void)model.model().prefill(session, prompt);
  });
  return static_cast<double>(prompt.size()) / secs;
}

struct ServerRun {
  double tokens_per_second = 0.0;
  double mean_occupancy = 0.0;
  double mean_latency_seconds = 0.0;
  double prefix_hit_rate = 0.0;
  /// metrics_json() snapshot of the best rep — the obs view of the same
  /// run, embedded into BENCH_perf.json for cross-PR comparison.
  std::string metrics_json;
};

const char* const kServerQuestion =
    "Given the code snippet: \"for (i = 0; i < n; i++) a[i] = b[i] + "
    "c[i];\", help me detect if adding pragma will cause a data race "
    "problem?";

/// One server scenario: `streams` identical requests fired as a burst at
/// a fresh server built from `config` (max_batch forced to `streams`).
/// Every stream-count and feature variant — 1/8/64 streams, int8 — flows
/// through this single code path so the numbers differ only in the knob
/// under test. With `warm_prefix` one untimed request runs first, so the
/// timed burst maps the shared prompt's pages out of the prefix cache
/// instead of re-prefilling them; its tokens are subtracted from the
/// throughput numerator.
ServerRun server_throughput(core::HpcGpt& model, std::size_t streams,
                            serve::ServeConfig config,
                            bool warm_prefix = false) {
  config.max_batch = streams;
  config.max_new_tokens = 48;
  config.admission_window_seconds = 0.002;
  ServerRun best;
  for (int rep = 0; rep < 5; ++rep) {
    serve::ServerStats st;
    std::string metrics;
    double wall = 0.0;
    std::size_t warm_tokens = 0;
    {
      serve::InferenceServer server(model, config);
      if (warm_prefix) {
        core::GenerationRequest warm;
        warm.prompt = kServerQuestion;
        warm_tokens = server.submit(std::move(warm)).get().generated_tokens;
      }
      Timer t;
      std::vector<std::future<core::GenerationResult>> futures;
      futures.reserve(streams);
      for (std::size_t i = 0; i < streams; ++i) {
        core::GenerationRequest request;
        request.prompt = kServerQuestion;
        futures.push_back(server.submit(std::move(request)));
      }
      for (auto& f : futures) (void)f.get();
      wall = t.seconds();
      server.shutdown();  // joins the scheduler: stats are final
      st = server.stats();
      metrics = server.metrics_json();
    }
    const double tps =
        static_cast<double>(st.generated_tokens - warm_tokens) / wall;
    if (tps > best.tokens_per_second) {
      best.tokens_per_second = tps;
      best.mean_occupancy = st.mean_batch_occupancy();
      best.mean_latency_seconds = st.mean_latency_seconds();
      best.prefix_hit_rate = st.prefix_cache_hit_rate();
      best.metrics_json = std::move(metrics);
    }
  }
  return best;
}

/// TTFT with and without a prefix-cache hit, measured as submit→result
/// wall time for a 1-token request. Each rep builds a fresh server: the
/// first request prefills from scratch (cold), the second re-sends the
/// same prompt and adopts the published pages (hit).
struct PrefixTtft {
  double cold_seconds = 1e30;
  double hit_seconds = 1e30;
};

PrefixTtft prefix_ttft(core::HpcGpt& model) {
  PrefixTtft best;
  for (int rep = 0; rep < 8; ++rep) {
    serve::ServeConfig config;
    config.max_batch = 1;
    config.max_new_tokens = 1;
    serve::InferenceServer server(model, config);
    const auto once = [&] {
      core::GenerationRequest request;
      request.prompt = kServerQuestion;
      request.max_new_tokens = 1;
      Timer t;
      (void)server.submit(std::move(request)).get();
      return t.seconds();
    };
    best.cold_seconds = std::min(best.cold_seconds, once());
    best.hit_seconds = std::min(best.hit_seconds, once());
  }
  return best;
}

/// p95 latency of one loopback GET /metrics scrape against a live
/// 8-stream server with the full telemetry pipeline active (collector at
/// the default 100 ms, stock SLO rules). The scraper polls continuously
/// while bursts of requests decode, so the number is "what a Prometheus
/// scrape costs while the server is busy" — benchdiff gates it
/// lower-is-better via the `latency` suffix.
double obs_scrape_p95_latency_seconds(core::HpcGpt& model) {
  serve::ServeConfig config;
  config.max_batch = 8;
  config.max_new_tokens = 48;
  config.admission_window_seconds = 0.002;
  config.telemetry = serve::default_telemetry();
  config.telemetry.metrics_port = 0;  // ephemeral loopback port
  serve::InferenceServer server(model, std::move(config));
  const std::string url = "http://127.0.0.1:" +
                          std::to_string(server.telemetry()->http_port()) +
                          "/metrics";

  std::vector<double> latencies;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      Timer t;
      (void)obs::http_get(url);
      latencies.push_back(t.seconds());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  for (int burst = 0; burst < 3; ++burst) {
    std::vector<std::future<core::GenerationResult>> futures;
    futures.reserve(8);
    for (int i = 0; i < 8; ++i) {
      core::GenerationRequest request;
      request.prompt = kServerQuestion;
      futures.push_back(server.submit(std::move(request)));
    }
    for (auto& f : futures) (void)f.get();
  }
  stop.store(true);
  scraper.join();
  server.shutdown();

  if (latencies.empty()) return 0.0;
  std::sort(latencies.begin(), latencies.end());
  const std::size_t rank =
      std::min(latencies.size() - 1,
               static_cast<std::size_t>(0.95 * (latencies.size() - 1) + 0.5));
  return latencies[rank];
}

/// Weight bytes per preset and storage mode. Constructs the bare
/// transformer (no tokenizer) — cheap at these sizes — and repacks it, so
/// the number is the real allocation, not an estimate.
double model_weight_kib(const nn::TransformerConfig& cfg,
                        tensor::QuantMode mode) {
  nn::Transformer model(cfg, 1);
  if (mode != tensor::QuantMode::Fp32) model.set_quant_mode(mode);
  return static_cast<double>(model.weight_memory_bytes()) / 1024.0;
}

// ---- training throughput (the data-parallel engine headline) ----

std::vector<nn::TrainSequence> train_corpus(const nn::TransformerConfig& cfg) {
  Rng rng(7);
  std::vector<nn::TrainSequence> out;
  for (int k = 0; k < 16; ++k) {
    nn::TrainSequence s;
    for (int i = 0; i < 64; ++i) {
      s.ids.push_back(
          static_cast<text::TokenId>(4 + rng.next_below(cfg.vocab_size - 8)));
    }
    s.targets.assign(s.ids.size(), -1);
    for (std::size_t i = 0; i + 1 < s.ids.size(); ++i) {
      s.targets[i] = static_cast<std::int32_t>(s.ids[i + 1]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::size_t corpus_tokens(std::span<const nn::TrainSequence> data) {
  std::size_t tokens = 0;
  for (const auto& s : data) tokens += s.ids.size();
  return tokens;
}

/// The pre-engine loop (one zero_grad / train_step / per-tensor Adam pass
/// per sequence) — the sequential baseline the speedup criterion is
/// measured against.
double train_tps_classic_loop(const nn::TransformerConfig& cfg,
                              std::span<const nn::TrainSequence> data) {
  nn::Transformer model(cfg, 1);
  nn::Adam adam((nn::AdamConfig()));
  auto epoch = [&] {
    for (const nn::TrainSequence& s : data) {
      model.zero_grad();
      (void)model.train_step(s.ids, s.targets);
      (void)adam.step(model.parameters());
    }
  };
  epoch();  // warm the training scratch
  const double secs = best_seconds(3, epoch);
  return static_cast<double>(corpus_tokens(data)) / secs;
}

double train_tps_engine(const nn::TransformerConfig& cfg,
                        std::span<const nn::TrainSequence> data,
                        std::size_t workers) {
  nn::Transformer model(cfg, 1);
  nn::TrainerOptions topts;
  topts.workers = workers;
  topts.micro_batch = 4;
  nn::Trainer trainer(model, topts);
  (void)trainer.run_epoch(data);  // warm replicas + scratch
  const double secs = best_seconds(3, [&] { (void)trainer.run_epoch(data); });
  return static_cast<double>(corpus_tokens(data)) / secs;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string out_path = argc > 1 ? argv[1] : "BENCH_perf.json";

  std::printf("bench_perf: GEMM 128 (isa=%s) ...\n",
              tensor::kernels::tier_name(tensor::kernels::active().tier));
  const double gemm = gemm128_gflops();
  std::printf("bench_perf: GEMM 128 int8 ...\n");
  const double gemm_i8 = gemm128_int8_gflops();
  core::HpcGpt model = make_model();
  core::HpcGpt model_i8 = make_model(tensor::QuantMode::Int8);
  core::HpcGpt model_f16 = make_model(tensor::QuantMode::Fp16);
  std::printf("bench_perf: decode fp32/int8/fp16 (interleaved) ...\n");
  core::HpcGpt* decode_models[] = {&model, &model_i8, &model_f16};
  const std::vector<double> decode_rates =
      decode_tokens_per_second(decode_models);
  const double decode_tps = decode_rates[0];
  const double decode_i8_tps = decode_rates[1];
  const double decode_f16_tps = decode_rates[2];
  std::printf("bench_perf: prefill ...\n");
  const double prefill_tps = prefill_tokens_per_second(model);
  std::printf("bench_perf: server 1-stream ...\n");
  const ServerRun single = server_throughput(model, 1, {});
  std::printf("bench_perf: server 8-stream ...\n");
  const ServerRun batched = server_throughput(model, 8, {});
  std::printf("bench_perf: server 8-stream int8 ...\n");
  const ServerRun batched_i8 = server_throughput(model_i8, 8, {});
  std::printf("bench_perf: server 64-stream (warm prefix) ...\n");
  const ServerRun wide =
      server_throughput(model, 64, {}, /*warm_prefix=*/true);
  std::printf("bench_perf: prefix cold/hit TTFT ...\n");
  const PrefixTtft ttft = prefix_ttft(model);

  const nn::TransformerConfig train_cfg =
      core::spec_for(core::BaseModel::Llama).config;
  const std::vector<nn::TrainSequence> corpus = train_corpus(train_cfg);
  std::printf("bench_perf: train sequential ...\n");
  const double train_seq_tps = train_tps_classic_loop(train_cfg, corpus);
  std::printf("bench_perf: train engine w1 ...\n");
  const double train_w1_tps = train_tps_engine(train_cfg, corpus, 1);
  std::printf("bench_perf: train engine w4 ...\n");
  const double train_w4_tps = train_tps_engine(train_cfg, corpus, 4);
  std::printf("bench_perf: analysis service cold/warm ...\n");
  const bench::AnalysisServiceBench analysis_bench =
      bench::run_analysis_service_bench();
  std::printf("bench_perf: telemetry scrape p95 under 8-stream load ...\n");
  const double scrape_p95 = obs_scrape_p95_latency_seconds(model);

  json::Object baseline;
  baseline["provenance"] = kBaselineProvenance;
  baseline["gemm_128_gflops"] = kBaselineGemm128Gflops;
  baseline["server_8stream_tokens_per_second"] = kBaselineServer8StreamTokS;

  json::Object measured;
  measured["gemm_128_gflops"] = gemm;
  measured["gemm_128_int8_gflops"] = gemm_i8;
  measured["decode_single_stream_tokens_per_second"] = decode_tps;
  measured["decode_single_stream_int8_tokens_per_second"] = decode_i8_tps;
  measured["decode_single_stream_fp16_tokens_per_second"] = decode_f16_tps;
  measured["prefill_tokens_per_second"] = prefill_tps;
  measured["server_1stream_tokens_per_second"] = single.tokens_per_second;
  measured["server_8stream_tokens_per_second"] = batched.tokens_per_second;
  measured["server_8stream_int8_tokens_per_second"] =
      batched_i8.tokens_per_second;
  measured["server_8stream_mean_batch_occupancy"] = batched.mean_occupancy;
  measured["server_8stream_mean_latency_seconds"] =
      batched.mean_latency_seconds;
  // Tail latency from the histogram quantile estimates: TTFT p95 of the
  // best 8-stream rep, read back out of the embedded obs snapshot so the
  // measured value and the obs view can never disagree. benchdiff gates
  // it as a lower-is-better metric.
  measured["server_8stream_ttft_p95_seconds"] =
      json::parse(batched.metrics_json)
          .at("server")
          .at("histograms")
          .at("serve.ttft.seconds")
          .at("p95")
          .as_number();
  // Wide (64-stream) continuous batching over the paged KV cache, with
  // the shared prompt warm in the prefix cache. Gated like the 8-stream
  // family; prefix_cache_hit_rate is gated higher-is-better by benchdiff.
  measured["server_64stream_tokens_per_second"] = wide.tokens_per_second;
  measured["server_64stream_mean_batch_occupancy"] = wide.mean_occupancy;
  measured["server_64stream_mean_latency_seconds"] =
      wide.mean_latency_seconds;
  measured["server_64stream_ttft_p95_seconds"] =
      json::parse(wide.metrics_json)
          .at("server")
          .at("histograms")
          .at("serve.ttft.seconds")
          .at("p95")
          .as_number();
  measured["prefix_cache_hit_rate"] = wide.prefix_hit_rate;
  measured["prefix_cold_ttft_seconds"] = ttft.cold_seconds;
  measured["prefix_hit_ttft_seconds"] = ttft.hit_seconds;
  measured["train_tokens_per_second_sequential"] = train_seq_tps;
  measured["train_tokens_per_second_workers1"] = train_w1_tps;
  measured["train_tokens_per_second_workers4"] = train_w4_tps;
  // Analysis-as-a-service: functions verified per second on the CI
  // re-verification workload (24-function DRB unit; warm = one function
  // edited per round, so N-1 requests are cache hits). Both are gated by
  // benchdiff as *_per_second throughput metrics.
  measured["analysis_per_second_cold"] = analysis_bench.cold_per_second;
  measured["analysis_per_second_warm"] = analysis_bench.warm_per_second;
  // Telemetry exposition cost: p95 of a loopback /metrics scrape while
  // the same 8-stream burst decodes and the collector ticks at 100 ms.
  // Gated lower-is-better by benchdiff (the `latency` classification).
  measured["obs_scrape_p95_latency_seconds"] = scrape_p95;
  // Weight memory per zoo preset and storage mode (KiB, real allocation
  // after repacking). benchdiff reports these informationally — a static
  // property of the build, not a throughput to gate.
  {
    const core::BaseModel presets[] = {
        core::BaseModel::Llama, core::BaseModel::Llama2,
        core::BaseModel::Gpt35, core::BaseModel::Gpt4};
    for (const core::BaseModel preset : presets) {
      const core::ModelOptions spec = core::spec_for(preset);
      measured["model_weight_kib_" + spec.name + "_fp32"] =
          model_weight_kib(spec.config, tensor::QuantMode::Fp32);
      measured["model_weight_kib_" + spec.name + "_fp16"] =
          model_weight_kib(spec.config, tensor::QuantMode::Fp16);
      measured["model_weight_kib_" + spec.name + "_int8"] =
          model_weight_kib(spec.config, tensor::QuantMode::Int8);
    }
  }

  json::Object speedup;
  speedup["gemm_128"] = gemm / kBaselineGemm128Gflops;
  speedup["server_8stream"] =
      batched.tokens_per_second / kBaselineServer8StreamTokS;
  speedup["train_workers4_vs_sequential"] = train_w4_tps / train_seq_tps;
  // The quantization acceptance criterion: int8 decode vs this build's
  // own fp32 decode (same binary, same machine, same loop).
  speedup["decode_int8_vs_fp32"] = decode_i8_tps / decode_tps;
  speedup["gemm_128_int8_vs_fp32"] = gemm_i8 / gemm;
  speedup["analysis_warm_vs_cold"] =
      analysis_bench.cold_per_second > 0.0
          ? analysis_bench.warm_per_second / analysis_bench.cold_per_second
          : 0.0;
  // Prefix-cache acceptance criterion: a full-prefix hit must answer its
  // first token faster than a cold prefill of the same prompt.
  speedup["prefix_hit_vs_cold_ttft"] =
      ttft.hit_seconds > 0.0 ? ttft.cold_seconds / ttft.hit_seconds : 0.0;

  json::Object root;
  root["bench"] = "inference_engine_perf";
  root["method"] = "best-of-N wall time per metric; model llama_sim "
                   "(untrained), prompt 64 tokens, 48 new tokens per "
                   "request for server metrics; 64-stream run has the "
                   "shared prompt pre-published to the prefix cache; "
                   "training over 16x64-token sequences, "
                   "engine micro_batch 4 (sequential baseline is the "
                   "classic per-sequence loop)";
  // Data-parallel speedup is bounded by the core count of the bench host;
  // record it so cross-machine comparisons read the w4 number correctly.
  root["hardware_concurrency"] =
      static_cast<double>(std::thread::hardware_concurrency());
  root["baseline"] = std::move(baseline);
  root["measured"] = std::move(measured);
  root["speedup"] = std::move(speedup);
  // Full obs snapshot of the best 8-stream rep (server registry +
  // process-wide substrate counters), parsed back so it nests as JSON.
  root["obs"] = json::parse(batched.metrics_json);

  const std::string text = json::Value(std::move(root)).dump_pretty();
  std::ofstream out(out_path);
  out << text << "\n";
  out.close();
  std::printf("%s\nwrote %s\n", text.c_str(), out_path.c_str());
  return 0;
}
