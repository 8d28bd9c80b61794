// race_ci: the paper's Task-2 traffic as a CI bot sends it. A pool of
// translation units of DRB functions (C and Fortran flavours) is pushed
// over and over; a push re-submits one unit — sometimes after editing one
// of its functions at a random statement — as one VerifyRequest plus one
// race-classification GenerationRequest per function. Closed loop: the bot
// keeps one push in flight and starts the next when it completes.

#include <algorithm>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/analysis/diagnostic.hpp"
#include "hpcgpt/analysis/service.hpp"
#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/minilang/parse.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/serve/server.hpp"
#include "hpcgpt/support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace hpcgpt;

/// C: pushes in flight. The server is the bottleneck (about the same
/// pushes/s at C = 1, 2 or 4 on a 4-core host), so more clients only add
/// queueing, which made the push latency swing with the host's load.
constexpr std::size_t kClients = 1;
constexpr std::size_t kUnits = 32;          ///< U
constexpr std::size_t kFunctions = 8;       ///< F per unit
constexpr double kEditProbability = 0.5;    ///< p
constexpr std::size_t kClassifyTokens = 2;
constexpr std::size_t kOracleSamples = 32;
constexpr std::size_t kReplaySamples = 512;
/// Prompt headroom kept below the context for the inserted edit statement.
constexpr std::size_t kEditHeadroomTokens = 16;

struct Function {
  minilang::Program base;
  minilang::Flavor flavor = minilang::Flavor::C;
  std::string name;
  std::string source;   ///< current version, full unit source
  std::string snippet;  ///< current version, statements only
};

struct Setup {
  std::unique_ptr<core::HpcGpt> model;
  std::unique_ptr<core::HpcGpt> oracle;  ///< same weights, never served
  std::unique_ptr<serve::InferenceServer> server;
  std::vector<std::vector<Function>> units;
  std::size_t prompt_pages = 0;  ///< Σ ceil(prompt tokens / page) over the pool
};

std::string classify_prompt(const Function& fn) {
  return core::HpcGpt::race_instruction(fn.snippet);
}

analysis::VerifyRequest verify_request(std::size_t unit,
                                       const std::vector<Function>& fns) {
  analysis::VerifyRequest request;
  request.unit = "unit" + std::to_string(unit);
  for (const Function& fn : fns) request.functions.push_back({fn.name, fn.source});
  return request;
}

void render_current(Function& fn, const minilang::Program& program) {
  fn.source = minilang::render(program, fn.flavor);
  fn.snippet = minilang::render_snippet(program, fn.flavor);
}

/// One DRB case with a distinct trailing `ci_salt = <salt>` statement and
/// a declared (initially unused) `ci_edit` scalar that edits assign.
/// Redrawn until its classification prompt leaves room for an edit.
Function make_function(const core::HpcGpt& model, std::size_t index, Rng& rng) {
  const auto& categories = drb::all_categories();
  const drb::Category category = categories[index % categories.size()];
  Function fn;
  fn.flavor = index % 2 == 0 ? minilang::Flavor::C : minilang::Flavor::Fortran;
  fn.name = "fn" + std::to_string(index);
  const std::size_t max_seq = core::default_architecture().max_seq;
  for (int attempt = 0; attempt < 256; ++attempt) {
    drb::TestCase tc = drb::generate_case(category, fn.flavor, rng);
    minilang::Program program = std::move(tc.program);
    program.decls.push_back({"ci_edit", false, 0, 0});
    program.decls.push_back({"ci_salt", false, 0, 0});
    program.body.push_back(minilang::assign(
        minilang::scalar_ref("ci_salt"),
        minilang::int_lit(static_cast<std::int64_t>(index))));
    fn.base = std::move(program);
    render_current(fn, fn.base);
    const std::size_t tokens = model.question_prompt_tokens(classify_prompt(fn));
    if (tokens + kClassifyTokens + kEditHeadroomTokens <= max_seq) return fn;
  }
  throw std::runtime_error("race_ci: no " + drb::category_name(category) +
                           " case fits the context");
}

/// Re-renders `fn` as its base with one `ci_edit = <stamp>` statement
/// inserted at a random top-level position: the prompt keeps the prefix
/// before the edit and changes from there on.
void edit_function(Function& fn, std::int64_t stamp, Rng& rng) {
  minilang::Program program = fn.base.clone();
  const std::size_t at = rng.next_below(program.body.size() + 1);
  program.body.insert(program.body.begin() + static_cast<std::ptrdiff_t>(at),
                      minilang::assign(minilang::scalar_ref("ci_edit"),
                                       minilang::int_lit(stamp)));
  render_current(fn, program);
}

struct Push {
  Clock::time_point start;
  bool traced = false;
  const Function* edited = nullptr;  ///< the function edited before the push
  std::future<analysis::VerifyResponse> verify;
  std::vector<std::future<core::GenerationResult>> classify;
  std::vector<double> classify_submit_seconds;
  /// Oracle sample: one function's inputs at push time.
  bool sampled = false;
  std::size_t sample_fn = 0;
  std::string sample_source;
  std::string sample_prompt;
};

struct Sample {
  std::string source;
  std::string prompt;
  analysis::FunctionReport served_report;
  core::GenerationResult served_result;
};

Push start_push(Setup& s, std::size_t unit, bool edit, std::int64_t stamp,
                Rng& rng) {
  std::vector<Function>& fns = s.units[unit];
  Push push;
  if (edit) {
    Function& fn = fns[rng.next_below(fns.size())];
    edit_function(fn, stamp, rng);
    push.edited = &fn;
  }
  push.start = Clock::now();
  push.verify = s.server->submit(verify_request(unit, fns));
  for (const Function& fn : fns) {
    core::GenerationRequest request;
    request.prompt = classify_prompt(fn);
    request.max_new_tokens = kClassifyTokens;
    const Clock::time_point t0 = Clock::now();
    push.classify.push_back(s.server->submit(std::move(request)));
    push.classify_submit_seconds.push_back(seconds_between(t0, Clock::now()));
  }
  return push;
}

bool ready(const Push& push) {
  using namespace std::chrono_literals;
  if (push.verify.wait_for(0s) != std::future_status::ready) return false;
  for (const auto& f : push.classify) {
    if (f.wait_for(0s) != std::future_status::ready) return false;
  }
  return true;
}

/// Blocks briefly on the first unresolved future of `push`.
void wait_a_little(const Push& push) {
  using namespace std::chrono_literals;
  if (push.verify.wait_for(0s) != std::future_status::ready) {
    push.verify.wait_for(100us);
    return;
  }
  for (const auto& f : push.classify) {
    if (f.wait_for(0s) != std::future_status::ready) {
      f.wait_for(100us);
      return;
    }
  }
}

std::unique_ptr<Setup> build(const Args& args) {
  auto s = std::make_unique<Setup>();
  const text::BpeTokenizer tokenizer = core::build_shared_tokenizer();
  s->model = make_serving_model(tokenizer);
  s->oracle = make_serving_model(tokenizer);

  Rng rng(args.seed * 104729 + 3);
  constexpr std::size_t kPage = nn::KvPagePool::kPageSize;
  for (std::size_t u = 0; u < kUnits; ++u) {
    std::vector<Function> fns;
    for (std::size_t f = 0; f < kFunctions; ++f) {
      fns.push_back(make_function(*s->model, u * kFunctions + f, rng));
      const std::size_t tokens =
          s->model->question_prompt_tokens(classify_prompt(fns.back()));
      s->prompt_pages += (tokens + kPage - 1) / kPage;
    }
    s->units.push_back(std::move(fns));
  }

  // Default ServeConfig, except that the page budget leaves the prefix
  // cache room for its whole node budget on top of the lanes' worst case,
  // so the trie's LRU (not pool pressure) decides what stays cached.
  serve::ServeConfig config;
  const nn::TransformerConfig& arch = s->model->model().config();
  const std::size_t stream_pages = (arch.max_seq + kPage - 1) / kPage + 1;
  config.kv.page_budget =
      (config.max_batch + 1) * arch.n_layers * stream_pages +
      config.kv.prefix_cache_max_nodes * arch.n_layers;
  s->server = std::make_unique<serve::InferenceServer>(*s->model, config);

  // Warm pass: every unit pushed once, unedited, C at a time.
  std::vector<Push> inflight;
  std::size_t next = 0;
  while (next < kUnits || !inflight.empty()) {
    while (next < kUnits && inflight.size() < kClients) {
      inflight.push_back(start_push(*s, next++, false, 0, rng));
    }
    for (Push& p : inflight) {
      p.verify.get();
      for (auto& f : p.classify) f.get();
    }
    inflight.clear();
  }
  return s;
}

}  // namespace

void run_race_ci(const Args& args, Report& report) {
  std::unique_ptr<Setup> s =
      timed_setup(report, [&] { return build(args); });
  serve::InferenceServer& server = *s->server;
  const std::size_t node_budget = server.config().kv.prefix_cache_max_nodes;
  report.detail("prompt_pool_pages", static_cast<double>(s->prompt_pages), "count");
  report.detail("clients", static_cast<double>(kClients), "count");
  report.check("prompt_pool_exceeds_prefix_node_budget",
               s->prompt_pages > node_budget,
               std::to_string(s->prompt_pages) + " pages vs " +
                   std::to_string(node_budget) + " nodes");

  const double window = args.seconds;
  const double trace_from = trace_start(args);
  Rng rng(args.seed * 31337 + 11);

  RegistryWindow serve_window, analysis_window, process_window;
  serve_window.start = RegistrySnapshot(server.metrics());
  analysis_window.start = RegistrySnapshot(server.verifier().metrics());
  process_window.start = RegistrySnapshot(obs::MetricsRegistry::global());
  double gemm_flops_at_trace = 0.0;

  std::vector<double> unit_ms, untraced_ms, traced_ms, classify_ms;
  std::vector<TimedSample> timed_ms, timed_ms_per_token;
  std::vector<double> submit_us;
  std::vector<std::string> edited_sources;
  std::vector<Sample> samples;
  std::size_t failed_pushes = 0;
  double measured_traced_requests = 0.0;
  const std::size_t sample_every = 7;
  std::size_t pushes = 0;
  std::int64_t stamp = 1;
  bool tracing = false;

  std::vector<Push> inflight;
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(window));
  for (;;) {
    const Clock::time_point now = Clock::now();
    if (now < end) {
      while (inflight.size() < kClients) {
        if (!tracing && seconds_between(start, Clock::now()) >= trace_from) {
          gemm_flops_at_trace = RegistrySnapshot(obs::MetricsRegistry::global())
                                    .counter("tensor.gemm.flops");
          arm_tracing(true);
          tracing = true;
        }
        const std::size_t unit = rng.next_below(kUnits);
        const bool edit = rng.next_bool(kEditProbability);
        Push push = start_push(*s, unit, edit, stamp++, rng);
        push.traced = tracing;
        if (push.edited != nullptr && edited_sources.size() < kReplaySamples) {
          edited_sources.push_back(push.edited->source);
        }
        if (pushes % sample_every == 0 && samples.size() < kOracleSamples) {
          push.sampled = true;
          push.sample_fn = rng.next_below(kFunctions);
          const Function& fn = s->units[unit][push.sample_fn];
          push.sample_source = fn.source;
          push.sample_prompt = classify_prompt(fn);
        }
        ++pushes;
        inflight.push_back(std::move(push));
      }
    } else if (inflight.empty()) {
      break;
    }
    bool completed = false;
    for (std::size_t i = 0; i < inflight.size();) {
      if (!ready(inflight[i])) {
        ++i;
        continue;
      }
      Push push = std::move(inflight[i]);
      inflight.erase(inflight.begin() + static_cast<std::ptrdiff_t>(i));
      completed = true;
      const double ms = 1e3 * seconds_between(push.start, Clock::now());
      const double at = seconds_between(start, push.start);
      bool ok = true;
      analysis::VerifyResponse response;
      try {
        response = push.verify.get();
        ok = response.accepted && response.parse_failures == 0 &&
             response.functions.size() == kFunctions;
      } catch (const std::exception&) {
        ok = false;
      }
      std::vector<core::GenerationResult> results;
      for (std::size_t f = 0; f < push.classify.size(); ++f) {
        core::GenerationResult r;
        try {
          r = push.classify[f].get();
        } catch (const std::exception&) {
          ok = false;
        }
        if (!r.ok() || r.finish == core::FinishReason::ContextLimit) ok = false;
        const double request_ms =
            1e3 * (push.classify_submit_seconds[f] + r.latency_seconds);
        classify_ms.push_back(request_ms);
        submit_us.push_back(1e6 * push.classify_submit_seconds[f]);
        if (r.generated_tokens > 0) {
          timed_ms_per_token.push_back(
              {at, request_ms / static_cast<double>(r.generated_tokens)});
        }
        if (push.traced) measured_traced_requests += r.latency_seconds;
        results.push_back(std::move(r));
      }
      if (!ok) {
        ++failed_pushes;
        continue;
      }
      unit_ms.push_back(ms);
      timed_ms.push_back({at, ms});
      (push.traced ? traced_ms : untraced_ms).push_back(ms);
      if (push.sampled) {
        samples.push_back({push.sample_source, push.sample_prompt,
                           response.functions[push.sample_fn],
                           results[push.sample_fn]});
      }
    }
    if (!completed && !inflight.empty()) wait_a_little(inflight.front());
  }
  const Clock::time_point drained = Clock::now();
  if (tracing) arm_tracing(false);
  serve_window.end = RegistrySnapshot(server.metrics());
  analysis_window.end = RegistrySnapshot(server.verifier().metrics());
  process_window.end = RegistrySnapshot(obs::MetricsRegistry::global());
  const double elapsed = seconds_between(start, drained);

  // ---- end-to-end ----
  report.e2e("latency_p50_ms", subwindow_median(timed_ms, window, p50));
  report.e2e("ms_per_token_p50", subwindow_median(timed_ms_per_token, window, p50));
  report.e2e("ops_per_s", subwindow_rate(timed_ms, window));
  report.detail("pushes", static_cast<double>(pushes), "count");
  report.detail("classify_latency_p50_ms", median(classify_ms), "ms");
  report.detail("unit_latency_p50_ms", quantile(unit_ms, 0.50), "ms");
  report.detail("unit_latency_p99_ms", quantile(unit_ms, 0.99), "ms");
  report.layer("bench.latency_p99_ms", quantile(unit_ms, 0.99));
  report.detail("units_per_s", static_cast<double>(unit_ms.size()) / elapsed, "1/s");

  // ---- correctness oracles (after the window, untimed) ----
  std::size_t mismatches = 0;
  for (const Sample& sample : samples) {
    // A fresh service per sample: nothing cached.
    analysis::VerificationService fresh(server.config().verification);
    const analysis::VerifyResponse want =
        fresh.verify(analysis::VerifyRequest::single(sample.source,
                                                     sample.served_report.name));
    if (want.functions.size() != 1 ||
        analysis::fingerprint(want.functions[0].report) !=
            analysis::fingerprint(sample.served_report.report) ||
        want.functions[0].has_errors() != sample.served_report.has_errors()) {
      ++mismatches;
      std::printf("oracle mismatch: verdict of %s differs from a fresh service\n",
                  sample.served_report.name.c_str());
    }
    core::GenerationRequest request;
    request.prompt = sample.prompt;
    request.max_new_tokens = kClassifyTokens;
    const core::GenerationResult got = s->oracle->generate(request);
    if (got.text != sample.served_result.text ||
        got.generated_tokens != sample.served_result.generated_tokens) {
      ++mismatches;
      std::printf("oracle mismatch: classification of %s differs from generate\n",
                  sample.served_report.name.c_str());
    }
  }
  report.attempted = pushes;
  report.failed = failed_pushes + mismatches;
  report.check("verdicts_equal_fresh_service_and_outputs_equal_generate",
               mismatches == 0 && !samples.empty(),
               std::to_string(mismatches) + " mismatches in " +
                   std::to_string(samples.size()) + " samples");
  report.check("no_failed_pushes", failed_pushes == 0,
               std::to_string(failed_pushes) + " of " + std::to_string(pushes));

  // ---- per-layer ----
  report_serve_layers(serve_window, elapsed, report);
  report.layer("serve.submit_us_p50", median(submit_us));
  report.layer("tensor.gemm_gflop_per_output_token",
               1e-9 * ratio(process_window.counter("tensor.gemm.flops"),
                            serve_window.counter("serve.tokens.generated")));
  const double hits = analysis_window.counter("analysis.cache.hits");
  report.layer("analysis.cache_hit_rate",
               ratio(hits, hits + analysis_window.counter("analysis.cache.misses")));
  report.layer("analysis.verify_ms_mean",
               1e3 * analysis_window.hist_mean("analysis.verify.seconds"));
  report.layer("analysis.evictions", analysis_window.counter("analysis.cache.evictions"));
  report_substrate_layers(process_window, report);

  if (args.trace) {
    std::vector<double> parse_us;
    for (const std::string& source : edited_sources) {
      const Clock::time_point t0 = Clock::now();
      (void)minilang::parse_any(source);
      parse_us.push_back(1e6 * seconds_between(t0, Clock::now()));
    }
    report.layer("minilang.parse_us_per_function", mean(parse_us));
    std::vector<double> encode_us;
    for (const Sample& sample : samples) {
      const Clock::time_point t0 = Clock::now();
      (void)s->oracle->prompt_ids(sample.prompt, kClassifyTokens);
      encode_us.push_back(1e6 * seconds_between(t0, Clock::now()));
    }
    report.layer("text.encode_us_per_prompt", mean(encode_us));
    const TraceSummary trace = summarize_trace(obs::TraceSink::global().events());
    report_trace_layers(trace, measured_traced_requests,
                        process_window.end.counter("tensor.gemm.flops") -
                            gemm_flops_at_trace,
                        process_window.counter("obs.trace.dropped"), report);
    report.layer("obs.trace_overhead_share",
                 ratio(median(traced_ms), median(untraced_ms)) - 1.0);
  }
  server.shutdown();
}

}  // namespace perfbench
