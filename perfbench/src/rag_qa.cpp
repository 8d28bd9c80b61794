// rag_qa: the paper's deployed Task-1 route. Independent users ask
// questions about a synthetic MLPerf-style knowledge base; every question
// goes through the server's RAG pre-stage (indexed top-k retrieval) and is
// answered by batched decode. Closed loop: one user asks the next question
// as soon as the answer to the last one arrives.

#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "hpcgpt/core/rag.hpp"
#include "hpcgpt/kb/kb.hpp"
#include "hpcgpt/obs/telemetry.hpp"
#include "hpcgpt/retrieval/engine.hpp"
#include "hpcgpt/serve/server.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/support/strings.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hpcgpt;

/// The knowledge base is the deployment's fixed data (the seed
/// bench_retrieval uses); the run seed draws the traffic over it.
constexpr std::size_t kDocs = 10000;
constexpr std::uint64_t kCorpusSeed = 2023;
/// Planned questions per second of window, more than one user gets
/// answered on a 4-core host; the plan repeats if a faster host runs out.
constexpr double kPlanPerSecond = 400.0;
constexpr std::size_t kMaxBatch = 8;
constexpr std::size_t kMinTokens = 16;
constexpr std::size_t kMaxTokens = 96;
constexpr std::size_t kOracleSamples = 24;
constexpr std::size_t kReplaySamples = 512;

struct Planned {
  std::string question;
  std::size_t budget = 0;
};

/// The record's words longest-first (TfidfEmbedder's normalization), so
/// the sampled words are the content a user would ask about.
std::vector<std::string> content_words(const std::string& record) {
  std::vector<std::string> words = strings::normalized_words(record);
  std::stable_sort(words.begin(), words.end(),
                   [](const std::string& a, const std::string& b) {
                     return a.size() > b.size();
                   });
  return words;
}

/// 3/4 needle questions naming one system id, 1/4 medium-frequency
/// questions naming an accelerator / software / benchmark combination.
std::string make_question(const std::string& record, std::size_t q) {
  std::vector<std::string> words = content_words(record);
  std::string sys_id;
  for (auto it = words.begin(); it != words.end(); ++it) {
    if (it->rfind("sys", 0) == 0 && it->size() > 3) {
      sys_id = *it;
      words.erase(it);
      break;
    }
  }
  if (q % 4 != 3 && !sys_id.empty()) return "tell me about " + sys_id;
  std::string question = "which mlperf system uses";
  for (std::size_t w = 0; w < words.size() && w < 4; ++w) {
    question += " " + words[w];
  }
  return question;
}

struct Setup {
  std::unique_ptr<core::HpcGpt> model;
  std::unique_ptr<core::HpcGpt> oracle;  ///< same weights, never served
  std::shared_ptr<retrieval::SearchEngine> engine;
  std::unique_ptr<serve::InferenceServer> server;
  std::vector<Planned> plan;
  std::string metrics_url;
};

std::unique_ptr<Setup> build(const Args& args) {
  auto s = std::make_unique<Setup>();
  const text::BpeTokenizer tokenizer = core::build_shared_tokenizer();
  s->model = make_serving_model(tokenizer);
  s->oracle = make_serving_model(tokenizer);

  const std::vector<std::string> corpus =
      kb::synthetic_retrieval_corpus(kDocs, kCorpusSeed);
  retrieval::TfidfEmbedder embedder;
  embedder.fit(corpus);
  s->engine = std::make_shared<retrieval::SearchEngine>(embedder);
  s->engine->add_all(corpus);

  serve::ServeConfig config;
  config.max_batch = kMaxBatch;
  config.rag.enabled = true;
  config.rag.engine = s->engine;
  config.telemetry = serve::default_telemetry();
  config.telemetry.metrics_port = 0;
  s->server = std::make_unique<serve::InferenceServer>(*s->model, config);
  s->metrics_url = "http://127.0.0.1:" +
                   std::to_string(s->server->telemetry()->http_port()) +
                   "/metrics";

  Rng rng(args.seed * 7919 + 17);
  const std::size_t n =
      static_cast<std::size_t>(std::llround(kPlanPerSecond * args.seconds));
  // Every budget in [kMinTokens, kMaxTokens] equally often, in a seeded
  // order: seeds differ in order and questions, not in how much decode the
  // window asks for.
  std::vector<std::size_t> budgets;
  for (std::size_t q = 0; q < n; ++q) {
    budgets.push_back(kMinTokens + q % (kMaxTokens - kMinTokens + 1));
  }
  shuffle(budgets, rng);
  s->plan.reserve(n);
  for (std::size_t q = 0; q < n; ++q) {
    Planned p;
    p.question = make_question(corpus[rng.next_below(corpus.size())], q);
    p.budget = budgets[q];
    s->plan.push_back(std::move(p));
  }

  // Warm-up: lazy set-up (pool threads, first GEMMs, first scrape) is paid
  // here, outside the window.
  std::vector<std::future<core::GenerationResult>> warm;
  for (std::size_t i = 0; i < 2 * kMaxBatch; ++i) {
    core::GenerationRequest request;
    request.prompt = make_question(corpus[i * 37 % corpus.size()], i);
    request.max_new_tokens = kMinTokens;
    warm.push_back(s->server->submit(std::move(request)));
  }
  for (auto& f : warm) f.get();
  (void)obs::http_get(s->metrics_url);
  return s;
}

struct Sent {
  Clock::time_point sent;
  Clock::time_point submitted;  ///< submit() returned
  bool traced = false;
  std::future<core::GenerationResult> future;
  core::GenerationResult result;
  bool ok = false;
  double latency_seconds = 0.0;  ///< sent -> result
};

/// The RAG prompt the server builds for `question` (its pre-stage, rerun).
std::string augmented_prompt(const serve::InferenceServer& server,
                             const std::string& question) {
  const serve::RagConfig& rag = server.config().rag;
  std::vector<retrieval::Hit> hits = rag.engine->top_k(question, rag.top_k);
  core::trim_context(hits, rag.min_score);
  return hits.empty() ? question : core::rag_prompt(hits, question);
}

}  // namespace

void run_rag_qa(const Args& args, Report& report) {
  std::unique_ptr<Setup> s =
      timed_setup(report, [&] { return build(args); });
  serve::InferenceServer& server = *s->server;

  const double window = args.seconds;
  const double trace_from = trace_start(args);

  RegistryWindow serve_window;
  RegistryWindow process_window;
  serve_window.start = RegistrySnapshot(server.metrics());
  process_window.start = RegistrySnapshot(obs::MetricsRegistry::global());
  double gemm_flops_at_trace = 0.0;

  std::vector<Sent> sent;
  sent.reserve(s->plan.size());
  std::vector<double> scrape_ms;
  std::size_t scrape_failures = 0;
  std::vector<double> submit_us;
  const Clock::time_point start = Clock::now();
  Clock::time_point next_scrape = start + std::chrono::seconds(1);
  bool tracing = false;
  for (std::size_t i = 0;; ++i) {
    if (!sent.empty()) sent.back().future.wait();
    const double at = seconds_between(start, Clock::now());
    if (at >= window) break;
    const Planned& p = s->plan[i % s->plan.size()];
    if (!tracing && at >= trace_from) {
      gemm_flops_at_trace =
          RegistrySnapshot(obs::MetricsRegistry::global()).counter("tensor.gemm.flops");
      arm_tracing(true);
      tracing = true;
    }
    Sent entry;
    entry.traced = tracing;
    core::GenerationRequest request;
    request.prompt = p.question;
    request.max_new_tokens = p.budget;
    entry.sent = Clock::now();
    entry.future = server.submit(std::move(request));
    entry.submitted = Clock::now();
    submit_us.push_back(1e6 * seconds_between(entry.sent, entry.submitted));
    sent.push_back(std::move(entry));
    if (Clock::now() >= next_scrape) {
      const Clock::time_point t0 = Clock::now();
      const obs::HttpResult scraped = obs::http_get(s->metrics_url);
      scrape_ms.push_back(1e3 * seconds_between(t0, Clock::now()));
      if (scraped.status != 200 || scraped.body.empty()) ++scrape_failures;
      next_scrape += std::chrono::seconds(1);
    }
  }

  report.check("metrics_scrapes_answered", scrape_failures == 0,
               std::to_string(scrape_failures) + " of " +
                   std::to_string(scrape_ms.size()) + " failed");
  report.attempted = sent.size();
  std::size_t failed_requests = 0;
  for (Sent& e : sent) {
    try {
      e.result = e.future.get();
      e.ok = e.result.ok() && e.result.finish != core::FinishReason::ContextLimit;
    } catch (const std::exception&) {
      e.ok = false;
    }
    if (!e.ok) ++failed_requests;
    // submit() itself (the RAG pre-stage runs on this thread), then the
    // server's submit -> completion.
    e.latency_seconds =
        seconds_between(e.sent, e.submitted) + e.result.latency_seconds;
  }
  const Clock::time_point drained = Clock::now();
  if (tracing) arm_tracing(false);
  serve_window.end = RegistrySnapshot(server.metrics());
  process_window.end = RegistrySnapshot(obs::MetricsRegistry::global());
  const double elapsed = seconds_between(start, drained);

  // ---- end-to-end (exact per-request samples) ----
  std::vector<double> latency_ms, ms_per_token, untraced_ms, traced_ms;
  std::vector<TimedSample> timed_ms, timed_ms_per_token;
  for (const Sent& e : sent) {
    if (!e.ok) continue;
    const double at = seconds_between(start, e.sent);
    const double ms = 1e3 * e.latency_seconds;
    latency_ms.push_back(ms);
    timed_ms.push_back({at, ms});
    if (e.result.generated_tokens > 0) {
      const double per_token = ms / static_cast<double>(e.result.generated_tokens);
      ms_per_token.push_back(per_token);
      timed_ms_per_token.push_back({at, per_token});
    }
    (e.traced ? traced_ms : untraced_ms).push_back(ms);
  }
  report.e2e("latency_p50_ms", subwindow_median(timed_ms, window, p50));
  report.e2e("ms_per_token_p50", subwindow_median(timed_ms_per_token, window, p50));
  report.e2e("ops_per_s", subwindow_rate(timed_ms, window));
  report.detail("requests", static_cast<double>(sent.size()), "count");
  report.detail("gen_latency_p50_ms", quantile(latency_ms, 0.50), "ms");
  report.detail("gen_latency_p99_ms", quantile(latency_ms, 0.99), "ms");
  report.layer("bench.latency_p99_ms", quantile(latency_ms, 0.99));
  report.detail("gen_ms_per_token_p50", median(ms_per_token), "ms");

  // ---- correctness oracles (after the window, untimed) ----
  std::size_t mismatches = 0;
  const std::size_t stride = std::max<std::size_t>(1, sent.size() / kOracleSamples);
  std::vector<std::string> sampled_prompts;
  for (std::size_t i = 0; i < sent.size(); i += stride) {
    const Sent& e = sent[i];
    const Planned& p = s->plan[i % s->plan.size()];
    const std::string prompt = augmented_prompt(server, p.question);
    sampled_prompts.push_back(prompt);
    if (!e.ok) continue;
    core::GenerationRequest request;
    request.prompt = prompt;
    request.max_new_tokens = p.budget;
    const core::GenerationResult want = s->oracle->generate(request);
    if (want.text != e.result.text ||
        want.generated_tokens != e.result.generated_tokens) {
      ++mismatches;
      std::printf("oracle mismatch request %zu: served %zu tokens, "
                  "generate %zu tokens\n",
                  i, e.result.generated_tokens, want.generated_tokens);
    }
    const std::vector<retrieval::Hit> indexed = s->engine->top_k(p.question, 10);
    const std::vector<retrieval::Hit> scan = s->engine->top_k_with(
        p.question, 10, retrieval::RetrievalConfig::Engine::Scan);
    bool same = indexed.size() == scan.size();
    for (std::size_t k = 0; same && k < indexed.size(); ++k) {
      same = indexed[k].index == scan[k].index && indexed[k].score == scan[k].score;
    }
    if (!same) {
      ++mismatches;
      std::printf("oracle mismatch request %zu: indexed top-k != scan\n", i);
    }
  }
  report.failed = failed_requests + mismatches;
  report.check("served_tokens_equal_generate_and_topk_equal_scan",
               mismatches == 0,
               std::to_string(mismatches) + " mismatches in " +
                   std::to_string((sent.size() + stride - 1) / stride) + " samples");
  report.check("no_failed_requests", failed_requests == 0,
               std::to_string(failed_requests) + " of " +
                   std::to_string(sent.size()));

  // ---- per-layer ----
  const RegistryWindow& sw = serve_window;
  report_serve_layers(sw, elapsed, report);
  report.layer("serve.submit_us_p50", median(submit_us));
  report.layer("obs.scrape_ms_p99", quantile(scrape_ms, 0.99));
  report.layer("tensor.gemm_gflop_per_output_token",
               1e-9 * ratio(process_window.counter("tensor.gemm.flops"),
                            sw.counter("serve.tokens.generated")));
  const double queries = process_window.counter("retrieval.query.count");
  report.layer("retrieval.query_us_mean",
               1e6 * process_window.hist_mean("retrieval.query.seconds"));
  report.layer("retrieval.postings_decoded_per_query",
               ratio(process_window.counter("retrieval.query.postings_decoded"), queries));
  report.layer("retrieval.docs_scored_per_query",
               ratio(process_window.counter("retrieval.query.docs_scored"), queries));
  report_substrate_layers(process_window, report);

  if (args.trace) {
    // Replays over the window's inputs, timed call by call.
    std::vector<double> query_us;
    for (std::size_t i = 0; i < sent.size() && query_us.size() < kReplaySamples;
         i += std::max<std::size_t>(1, sent.size() / kReplaySamples)) {
      const Clock::time_point t0 = Clock::now();
      (void)s->engine->top_k(s->plan[i % s->plan.size()].question,
                             server.config().rag.top_k);
      query_us.push_back(1e6 * seconds_between(t0, Clock::now()));
    }
    report.layer("retrieval.query_us_p99", quantile(query_us, 0.99));
    std::vector<double> encode_us;
    for (std::size_t i = 0; i < sampled_prompts.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      (void)s->oracle->prompt_ids(sampled_prompts[i], s->plan[i * stride % s->plan.size()].budget);
      encode_us.push_back(1e6 * seconds_between(t0, Clock::now()));
    }
    report.layer("text.encode_us_per_prompt", mean(encode_us));

    const TraceSummary trace = summarize_trace(obs::TraceSink::global().events());
    double measured = 0.0;
    for (const Sent& e : sent) {
      if (e.traced && e.ok) measured += e.result.latency_seconds;
    }
    report_trace_layers(trace, measured,
                        process_window.end.counter("tensor.gemm.flops") -
                            gemm_flops_at_trace,
                        process_window.counter("obs.trace.dropped"), report);
    report.layer("obs.trace_overhead_share",
                 ratio(median(traced_ms), median(untraced_ms)) - 1.0);
  }
  server.shutdown();
}

}  // namespace perfbench
