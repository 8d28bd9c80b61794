// hpcgpt — command-line front end for the whole pipeline. Each command
// accepts exactly the flags listed with it below; any other flag exits
// with status 2.
//
//   hpcgpt collect --out dataset.jsonl [--seed N] [--scale D]
//       run the §3.2 instruction collection and write JSON-lines
//   hpcgpt train --data dataset.jsonl --out model.bin
//          [--base llama|llama2|gpt35|gpt4] [--lora R] [--epochs E]
//          [--max-records N] [--workers W] [--micro-batch B] [--pack]
//          [--trace-out trace.json]
//       pre-train a base model and fine-tune it on the dataset;
//       --workers W runs the data-parallel engine with W model replicas
//       (0 = all cores), --micro-batch B averages B sequences per
//       optimizer step, --pack concatenates short examples to the
//       context window, --trace-out writes a Perfetto trace of the run
//   hpcgpt ask --model model.bin [--quant int8|fp16|fp32] [--rag]
//          [--retrieval scan|indexed] [--rag-score impact|bm25]
//          [--rag-top-k K] [--rag-min-score S] "question..."
//       free-form Task-1 question answering; --rag retrieves context from
//       the built-in knowledge base through the search engine first
//       (--retrieval picks the query path, --rag-score the document-side
//       index weighting: impact = TF-IDF, bm25 = Okapi BM25)
//   hpcgpt detect [--model model.bin] file.c|file.f90
//       race-check a source file with the four tools (and, when a model
//       is given, the LLM-based method of Task 2)
//   hpcgpt eval --model model.bin [--language c|fortran] [--quant MODE]
//       score the model on the DataRaceBench-style evaluation suite
//   hpcgpt serve --model model.bin [--metrics] [--trace-out trace.json]
//          [--quant int8|fp16|fp32] [--batch N] [--max-new-tokens T]
//          [--window SECONDS] [--kv-pages N] [--prefix-cache on|off]
//          [--rag] [--retrieval scan|indexed] [--rag-score impact|bm25]
//          [--rag-top-k K] [--rag-min-score S]
//          [--metrics-port N] [--slo-ttft SECONDS]
//       answer questions from stdin, one per line (Figure-1 deployment).
//       Every flag maps 1:1 onto a serve::ServeConfig field:
//       --metrics prints the server's metrics JSON on shutdown,
//       --metrics-port starts the live telemetry pipeline and serves
//       GET /metrics /healthz /snapshot /history on 127.0.0.1:N
//       (0 = ephemeral; the bound port is printed at startup) with the
//       stock SLO rule set — --slo-ttft sets the TTFT burn-rate
//       objective threshold in seconds (default 0.25),
//       --trace-out writes a Perfetto/Chrome trace of every request,
//       --quant requantizes the loaded weights for inference (bundles
//       always store fp32; int8/fp16 shrink the resident footprint and
//       switch decode onto the SIMD-dispatched quantized kernels),
//       --batch sets the continuous-batching lanes, --window the
//       admission window, --kv-pages the paged-KV budget (0 = derived),
//       --prefix-cache toggles the radix-trie prompt cache, --rag
//       augments every prompt with retrieved knowledge-base context at
//       submit time
//   hpcgpt obs dump [--model model.bin] [--question "..."] [--compact]
//          [--format json|prom|perfetto|folded]
//       dump the process metrics registry (and, when a model is given,
//       trace one generation first so the snapshot has content);
//       prom = Prometheus text exposition, perfetto = trace-event JSON,
//       folded = flamegraph.pl folded stacks
//   hpcgpt verify-serve [--compat] [--explain] [--cache N] [--metrics]
//          [--metrics-port N] [file...]
//       analysis-as-a-service loop (no model needed): positional files
//       are each verified as a single-function unit, then every stdin
//       line of whitespace-separated paths is served as one translation
//       unit — re-submitted files hit the result cache ([hit] in the
//       output). --explain attaches the Task-2 rationale and its DRB
//       knowledge-base grounding, --compat restricts to the
//       LLOV-compatible scope, --metrics prints the service registry
//       (analysis.cache.{hits,misses,evictions} and friends) at EOF,
//       --metrics-port attaches a telemetry pipeline to the service
//       registry and serves it over HTTP exactly like `serve`
//   hpcgpt top <url|file> [--interval S] [--frames N] [--plain]
//       live terminal dashboard over a telemetry endpoint: polls
//       <url>/history every --interval seconds (default 1) and renders
//       throughput, TTFT p50/p95, queue depth, KV pages, prefix-hit rate
//       and the SLO lights; --frames N stops after N frames (0 = until
//       the endpoint goes away), --plain disables ANSI color/clearing.
//       A file argument renders one frame from a saved /history payload
//   hpcgpt export-drb --dir DIR [--language c|fortran|both]
//       write the DataRaceBench-style evaluation suite to disk as
//       .c/.f90 sources plus a labels.csv (the dataset-release artifact)

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hpcgpt/analysis/service.hpp"
#include "hpcgpt/core/evaluation.hpp"
#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/core/rag.hpp"
#include "hpcgpt/retrieval/engine.hpp"
#include <filesystem>

#include "hpcgpt/datagen/pipeline.hpp"
#include "hpcgpt/eval/metrics.hpp"
#include "hpcgpt/kb/kb.hpp"
#include "hpcgpt/minilang/parse.hpp"
#include "hpcgpt/json/json.hpp"
#include "hpcgpt/obs/export.hpp"
#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/telemetry.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/race/detector.hpp"
#include "hpcgpt/serve/server.hpp"

using namespace hpcgpt;

namespace {

struct Args {
  std::map<std::string, std::string> options;
  std::vector<std::string> positional;
};

// Flags that never take a value. Without this list a boolean flag
// directly before a positional would swallow it (`verify-serve
// --explain kernel.c` used to parse kernel.c as the value of --explain
// and verify nothing).
bool is_boolean_flag(const std::string& name) {
  return name == "pack" || name == "metrics" || name == "compact" ||
         name == "compat" || name == "explain" || name == "rag" ||
         name == "plain";
}

Args parse_args(int argc, char** argv, int from) {
  Args args;
  for (int i = from; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      args.positional.push_back(a);
      continue;
    }
    // Both spellings work: --key value and --key=value.
    const std::size_t eq = a.find('=');
    if (eq != std::string::npos) {
      args.options[a.substr(2, eq - 2)] = a.substr(eq + 1);
    } else if (!is_boolean_flag(a.substr(2)) && i + 1 < argc &&
               std::string(argv[i + 1]).rfind("--", 0) != 0) {
      args.options[a.substr(2)] = argv[++i];
    } else {
      args.options[a.substr(2)] = "1";
    }
  }
  return args;
}

std::string opt(const Args& args, const std::string& key,
                const std::string& fallback) {
  const auto it = args.options.find(key);
  return it == args.options.end() ? fallback : it->second;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int cmd_collect(const Args& args) {
  const std::uint64_t seed = std::stoull(opt(args, "seed", "2023"));
  datagen::TeacherOptions topts;
  topts.seed = seed;
  datagen::TeacherModel teacher(topts);
  datagen::Task1Spec t1;
  t1.scale_divisor = std::stoull(opt(args, "scale", "8"));
  t1.seed = seed + 1;
  datagen::InstructionDataset data = datagen::collect_task1(teacher, t1);
  datagen::InstructionDataset t2 =
      datagen::collect_task2(teacher, {.seed = seed + 2});
  for (auto& r : t2.records) data.records.push_back(std::move(r));

  const std::string out_path = opt(args, "out", "dataset.jsonl");
  std::ofstream out(out_path);
  require(out.good(), "cannot write " + out_path);
  out << datagen::to_jsonl(data.records);
  std::printf("wrote %zu records to %s\n", data.records.size(),
              out_path.c_str());
  std::printf("task1: %zu emissions, %zu accepted | task2: %zu emissions, "
              "%zu accepted\n",
              data.task1_stats.input, data.task1_stats.accepted,
              t2.task2_stats.input, t2.task2_stats.accepted);
  return 0;
}

core::BaseModel base_by_name(const std::string& name) {
  if (name == "llama") return core::BaseModel::Llama;
  if (name == "llama2") return core::BaseModel::Llama2;
  if (name == "gpt35") return core::BaseModel::Gpt35;
  if (name == "gpt4") return core::BaseModel::Gpt4;
  throw InvalidArgument("unknown base model: " + name);
}

void begin_trace_capture();
void write_trace_capture(const std::string& path);

int cmd_train(const Args& args) {
  const auto records =
      datagen::from_jsonl(read_file(opt(args, "data", "dataset.jsonl")));
  std::printf("loaded %zu records\n", records.size());
  const std::string trace_out = opt(args, "trace-out", "");
  if (!trace_out.empty()) begin_trace_capture();

  const text::BpeTokenizer tokenizer = core::build_shared_tokenizer();
  core::ModelOptions spec =
      core::spec_for(base_by_name(opt(args, "base", "llama2")));
  spec.name = "hpc-gpt (" + opt(args, "base", "llama2") + ")";
  core::HpcGpt model(spec, tokenizer);
  std::printf("pre-training %zu steps...\n", spec.pretrain_steps);
  model.pretrain(kb::unstructured_corpus(), {});

  const std::size_t lora = std::stoull(opt(args, "lora", "0"));
  if (lora > 0) {
    model.model().attach_lora(lora, 2.0f * static_cast<float>(lora), true);
  }
  core::FinetuneOptions fopts;
  fopts.epochs = std::stoull(opt(args, "epochs", "3"));
  fopts.learning_rate = lora > 0 ? 1e-3f : 2e-3f;
  fopts.max_records = std::stoull(opt(args, "max-records", "0"));
  fopts.train.workers = std::stoull(opt(args, "workers", "1"));
  fopts.train.micro_batch = std::stoull(opt(args, "micro-batch", "1"));
  fopts.train.pack_sequences = args.options.count("pack") > 0;
  std::printf("fine-tuning (%s, %zu epochs, workers %s, micro-batch %zu"
              "%s)...\n",
              lora > 0 ? "LoRA" : "full", fopts.epochs,
              fopts.train.workers == 0 ? "auto"
                                       : opt(args, "workers", "1").c_str(),
              fopts.train.micro_batch,
              fopts.train.pack_sequences ? ", packed" : "");
  const core::FinetuneReport report = model.finetune(records, fopts);
  std::printf("loss %.3f -> %.3f over %zu steps, %zu trainable params, "
              "%.1fs (%zu workers, %.0f tok/s)\n",
              report.first_epoch_loss, report.last_epoch_loss, report.steps,
              report.trainable_parameters, report.wall_seconds,
              report.workers, report.tokens_per_second);

  const std::string out_path = opt(args, "out", "model.bin");
  model.save_bundle_file(out_path);
  std::printf("saved bundle to %s\n", out_path.c_str());
  if (!trace_out.empty()) write_trace_capture(trace_out);
  return 0;
}

/// --quant=int8|fp16|fp32 on the inference commands (ask/eval/serve):
/// requantizes the freshly loaded fp32 bundle in place and reports the
/// footprint change. fp32 (the default) keeps the weights as loaded.
void apply_quant(core::HpcGpt& model, const Args& args) {
  const std::string mode = opt(args, "quant", "fp32");
  if (mode == "fp32") return;
  const std::size_t before = model.model().weight_memory_bytes();
  if (mode == "int8") {
    model.set_quant_mode(tensor::QuantMode::Int8);
  } else if (mode == "fp16") {
    model.set_quant_mode(tensor::QuantMode::Fp16);
  } else {
    throw InvalidArgument("unknown --quant mode: " + mode +
                          " (expected int8, fp16 or fp32)");
  }
  const std::size_t after = model.model().weight_memory_bytes();
  std::printf("quantized weights to %s: %.0f KiB -> %.0f KiB (%.2fx "
              "smaller)\n",
              mode.c_str(), static_cast<double>(before) / 1024.0,
              static_cast<double>(after) / 1024.0,
              static_cast<double>(before) / static_cast<double>(after));
}

/// --rag support, shared by ask and serve: a SearchEngine over the
/// built-in knowledge base (unstructured paragraphs plus every flattened
/// PLP/MLPerf record), with --retrieval picking the query path.
std::shared_ptr<retrieval::SearchEngine> build_rag_engine(const Args& args) {
  std::vector<std::string> chunks = kb::unstructured_corpus();
  const kb::KnowledgeBase& base = kb::KnowledgeBase::expanded();
  for (const auto& entry : base.plp) chunks.push_back(kb::flatten(entry));
  for (const auto& entry : base.mlperf) chunks.push_back(kb::flatten(entry));
  retrieval::TfidfEmbedder embedder;
  embedder.fit(chunks);
  retrieval::RetrievalConfig config;
  config.engine = retrieval::engine_by_name(opt(args, "retrieval", "indexed"));
  // --rag-score picks the document-side index weighting: "impact" is the
  // TF-IDF impact-ordered default, "bm25" switches to Okapi BM25.
  const std::string score = opt(args, "rag-score", "impact");
  if (score == "impact") {
    config.weighting = retrieval::RetrievalConfig::Weighting::Tfidf;
  } else if (score == "bm25") {
    config.weighting = retrieval::RetrievalConfig::Weighting::Bm25;
  } else {
    throw InvalidArgument("unknown --rag-score: " + score +
                          " (expected impact or bm25)");
  }
  auto engine =
      std::make_shared<retrieval::SearchEngine>(std::move(embedder), config);
  engine->add_all(chunks);
  return engine;
}

core::RagOptions rag_options(const Args& args) {
  core::RagOptions options;
  options.top_k = std::stoul(opt(args, "rag-top-k", "2"));
  options.min_score = std::stod(opt(args, "rag-min-score", "0.05"));
  return options;
}

int cmd_ask(const Args& args) {
  core::HpcGpt model =
      core::HpcGpt::load_bundle_file(opt(args, "model", "model.bin"));
  apply_quant(model, args);
  require(!args.positional.empty(), "usage: hpcgpt ask --model M \"question\"");
  if (args.options.count("rag") > 0) {
    const std::shared_ptr<retrieval::SearchEngine> engine =
        build_rag_engine(args);
    const core::RagOptions options = rag_options(args);
    for (const std::string& q : args.positional) {
      const core::RagAnswer answer = core::rag_ask(model, *engine, q, options);
      std::printf("Q: %s\nA: %s\n", q.c_str(), answer.text.c_str());
      if (answer.used_context) {
        for (const retrieval::Hit& hit : answer.context) {
          std::printf("  [context %.3f] %s\n", hit.score, hit.text.c_str());
        }
      } else {
        std::printf("  [no relevant context — answered unaided]\n");
      }
    }
    return 0;
  }
  for (const std::string& q : args.positional) {
    std::printf("Q: %s\nA: %s\n", q.c_str(), model.ask(q).c_str());
  }
  return 0;
}

int cmd_detect(const Args& args) {
  require(!args.positional.empty(), "usage: hpcgpt detect [--model M] file");
  for (const std::string& path : args.positional) {
    std::printf("== %s ==\n", path.c_str());
    const std::string source = read_file(path);
    const minilang::Program program = minilang::parse_any(source);
    const minilang::Flavor flavor =
        source.find("!$omp") != std::string::npos
            ? minilang::Flavor::Fortran
            : minilang::Flavor::C;
    for (const auto& tool : race::make_all_tools()) {
      const race::DetectionResult r = tool->analyze(program, flavor);
      std::printf("  %-16s %s\n", tool->info().name.c_str(),
                  r.verdict == race::Verdict::Race
                      ? ("RACE on '" + r.races.front().var + "'").c_str()
                  : r.verdict == race::Verdict::NoRace
                      ? "no race"
                      : ("unsupported: " + r.unsupported_reason).c_str());
    }
    const auto it = args.options.find("model");
    if (it != args.options.end()) {
      core::HpcGpt model = core::HpcGpt::load_bundle_file(it->second);
      const std::string snippet = minilang::render_snippet(program, flavor);
      const core::RaceVerdict v =
          model.classify_race({.prompt = snippet, .token_limit = 256}).verdict;
      std::printf("  %-16s %s\n", model.name().c_str(),
                  v == core::RaceVerdict::Yes   ? "RACE"
                  : v == core::RaceVerdict::No  ? "no race"
                                                : "prompt too long");
    }
  }
  return 0;
}

int cmd_eval(const Args& args) {
  core::HpcGpt model =
      core::HpcGpt::load_bundle_file(opt(args, "model", "model.bin"));
  apply_quant(model, args);
  const minilang::Flavor flavor = opt(args, "language", "c") == "fortran"
                                      ? minilang::Flavor::Fortran
                                      : minilang::Flavor::C;
  const auto suite = drb::evaluation_suite(flavor);
  const eval::Confusion c = core::evaluate_llm(model, suite, 256);
  std::vector<eval::ToolRow> rows(1);
  rows[0].tool = model.name();
  rows[0].language = minilang::flavor_name(flavor);
  rows[0].confusion = c;
  std::printf("%s", eval::render_table5(rows).c_str());
  return 0;
}

/// --trace-out=FILE support, shared by serve and train: arms the global
/// sink (with a deep ring so a whole run fits) before the workload, then
/// writes the Perfetto JSON artifact afterwards.
void begin_trace_capture() {
  obs::TraceSink& sink = obs::TraceSink::global();
  sink.set_capacity(1 << 16);
  sink.clear();
  sink.enable(true);
}

void write_trace_capture(const std::string& path) {
  obs::TraceSink& sink = obs::TraceSink::global();
  sink.enable(false);
  std::ofstream out(path, std::ios::binary);
  require(out.good(), "cannot write " + path);
  out << obs::perfetto_trace_json(sink);
  std::printf("wrote %zu trace events (%llu dropped) to %s — open in "
              "ui.perfetto.dev or chrome://tracing\n",
              sink.events().size(),
              static_cast<unsigned long long>(sink.dropped_count()),
              path.c_str());
}

/// --quant=int8|fp16|fp32 → tensor::QuantMode (serve: the mode lives in
/// ServeConfig and the server applies it at construction).
tensor::QuantMode quant_by_name(const std::string& mode) {
  if (mode == "fp32") return tensor::QuantMode::Fp32;
  if (mode == "int8") return tensor::QuantMode::Int8;
  if (mode == "fp16") return tensor::QuantMode::Fp16;
  throw InvalidArgument("unknown --quant mode: " + mode +
                        " (expected int8, fp16 or fp32)");
}

int cmd_serve(const Args& args) {
  core::HpcGpt model =
      core::HpcGpt::load_bundle_file(opt(args, "model", "model.bin"));
  const std::string trace_out = opt(args, "trace-out", "");
  if (!trace_out.empty()) begin_trace_capture();
  // Every serving knob maps 1:1 onto one ServeConfig field; the server
  // validates the combination and applies --quant to the loaded model.
  serve::ServeConfig config;
  config.max_batch = std::stoul(opt(args, "batch", "2"));
  config.max_new_tokens = std::stoul(opt(args, "max-new-tokens", "48"));
  config.admission_window_seconds = std::stod(opt(args, "window", "0"));
  config.quant = quant_by_name(opt(args, "quant", "fp32"));
  config.kv.page_budget = std::stoul(opt(args, "kv-pages", "0"));
  config.kv.prefix_cache = opt(args, "prefix-cache", "on") != "off";
  if (args.options.count("rag") > 0) {
    config.rag.enabled = true;
    config.rag.engine = build_rag_engine(args);
    const core::RagOptions rag = rag_options(args);
    config.rag.top_k = rag.top_k;
    config.rag.min_score = rag.min_score;
  }
  const std::string metrics_port = opt(args, "metrics-port", "");
  if (!metrics_port.empty()) {
    // The stock SLO rule set (TTFT latency burn, shed-ratio burn, queue
    // depth), sampled every 100 ms and served over loopback HTTP.
    config.telemetry =
        serve::default_telemetry(std::stod(opt(args, "slo-ttft", "0.25")));
    config.telemetry.metrics_port = std::stoi(metrics_port);
  }
  const std::size_t max_inflight = std::max<std::size_t>(config.max_batch, 1) * 2;
  serve::InferenceServer server(model, std::move(config));
  if (server.telemetry() != nullptr && server.telemetry()->http_port() >= 0) {
    std::printf("telemetry on http://127.0.0.1:%d — /metrics /healthz "
                "/snapshot /history (try: hpcgpt top "
                "http://127.0.0.1:%d)\n",
                server.telemetry()->http_port(),
                server.telemetry()->http_port());
  }
  std::printf("hpcgpt serving '%s' — one question per line, EOF to stop\n",
              model.name().c_str());
  // Submit ahead of the printer: keeping up to 2x the lane count in
  // flight lets piped stdin actually exercise continuous batching (the
  // old submit-then-get loop serialized every request). Answers still
  // print in submission order — the FIFO drain below preserves it.
  std::deque<std::future<core::GenerationResult>> inflight;
  std::size_t served = 0;
  const auto drain_front = [&] {
    const core::GenerationResult result = inflight.front().get();
    if (result.ok()) ++served;
    std::printf("%s\n", result.text.c_str());
    std::fflush(stdout);
    inflight.pop_front();
  };
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    core::GenerationRequest request;
    request.prompt = line;
    inflight.push_back(server.submit(std::move(request)));
    while (inflight.size() >= max_inflight) drain_front();
  }
  while (!inflight.empty()) drain_front();
  server.shutdown();
  std::printf("served %zu requests\n", served);
  if (args.options.count("metrics") > 0) {
    std::printf("%s\n", server.metrics_json().c_str());
  }
  if (!trace_out.empty()) write_trace_capture(trace_out);
  return 0;
}

int cmd_obs(const Args& args) {
  require(!args.positional.empty() && args.positional[0] == "dump",
          "usage: hpcgpt obs dump [--model M] [--question Q] [--compact] "
          "[--format json|prom|perfetto|folded]");
  const auto model_it = args.options.find("model");
  if (model_it != args.options.end()) {
    // Run one traced generation so the dump demonstrates live content:
    // span events in the trace ring plus GEMM/prefill/decode counters.
    core::HpcGpt model = core::HpcGpt::load_bundle_file(model_it->second);
    obs::TraceSink::global().enable(true);
    core::GenerationRequest request;
    request.prompt = opt(args, "question", "What is a data race?");
    model.generate(request);
    obs::TraceSink::global().enable(false);
  }
  const std::string format = opt(args, "format", "json");
  if (format == "prom") {
    // Prometheus text exposition of the process registry (pipe into a
    // node_exporter textfile or curl-compatible scrape mock).
    std::printf("%s", obs::prometheus_text(obs::MetricsRegistry::global())
                          .c_str());
  } else if (format == "perfetto") {
    std::printf("%s\n",
                obs::perfetto_trace_json(obs::TraceSink::global()).c_str());
  } else if (format == "folded") {
    // flamegraph.pl-ready folded stacks of the buffered spans.
    std::printf("%s", obs::folded_stacks(obs::TraceSink::global()).c_str());
  } else {
    require(format == "json",
            "obs dump: unknown --format (json|prom|perfetto|folded)");
    json::Object root;
    root["metrics"] = obs::MetricsRegistry::global().snapshot();
    root["trace"] = obs::TraceSink::global().to_json();
    root["trace_dropped"] =
        static_cast<std::size_t>(obs::TraceSink::global().dropped_count());
    const json::Value dump{std::move(root)};
    std::printf("%s\n", args.options.count("compact") > 0
                            ? dump.dump().c_str()
                            : dump.dump_pretty().c_str());
  }
  return 0;
}

int cmd_verify_serve(const Args& args) {
  analysis::ServiceOptions sopts;
  if (args.options.count("compat") > 0) {
    sopts.verifier = analysis::VerifierOptions::llov_compat();
  }
  sopts.cache_capacity = std::stoull(opt(args, "cache", "1024"));
  const bool explain = args.options.count("explain") > 0;
  sopts.ground_rationales = explain;
  analysis::VerificationService service(sopts);

  // --metrics-port: same telemetry pipeline `serve` runs, attached to the
  // verification service's private registry, with a burn-rate rule on the
  // parse-failure ratio (a CI lane feeding garbage trips /healthz).
  std::unique_ptr<obs::TelemetryPipeline> telemetry;
  const std::string metrics_port = opt(args, "metrics-port", "");
  if (!metrics_port.empty()) {
    obs::TelemetryConfig tc;
    tc.enabled = true;
    tc.metrics_port = std::stoi(metrics_port);
    obs::BurnRateRule parse_rule;
    parse_rule.name = "slo.parse_failures";
    parse_rule.bad_metric = "analysis.parse_failures";
    parse_rule.good_metric = "analysis.functions";
    parse_rule.objective = 0.9;
    parse_rule.fast_window_seconds = 5.0;
    parse_rule.slow_window_seconds = 30.0;
    tc.burn_rules.push_back(parse_rule);
    telemetry = std::make_unique<obs::TelemetryPipeline>(service.metrics(),
                                                         std::move(tc));
    telemetry->start();
    std::printf("telemetry on http://127.0.0.1:%d — /metrics /healthz "
                "/snapshot /history\n",
                telemetry->http_port());
  }

  bool any_errors = false;
  const auto print_response = [&](const analysis::VerifyResponse& r) {
    for (const analysis::FunctionReport& f : r.functions) {
      if (!f.parsed) {
        std::printf("  %-24s [%s] parse error: %s\n", f.name.c_str(),
                    f.cache_hit ? "hit " : "miss", f.parse_error.c_str());
        continue;
      }
      std::printf("  %-24s [%s] %s\n", f.name.c_str(),
                  f.cache_hit ? "hit " : "miss",
                  f.has_errors() ? "race" : "clean");
      if (explain) {
        std::printf("    %s\n", f.rationale.c_str());
        for (const std::string& chunk : f.grounding) {
          std::printf("    grounded in: %s\n", chunk.c_str());
        }
      }
    }
    std::printf("%s\n", r.summary().c_str());
    any_errors |= r.has_errors();
  };
  const auto verify_unit = [&](const std::vector<std::string>& paths,
                               std::string unit) {
    analysis::VerifyRequest request;
    request.unit = std::move(unit);
    request.explain = explain;
    for (const std::string& p : paths) {
      request.functions.push_back({p, read_file(p)});
    }
    print_response(service.verify(request));
  };

  for (const std::string& path : args.positional) {
    verify_unit({path}, path);
  }
  if (args.positional.empty()) {
    // Serving loop: only when no files were given, so `verify-serve
    // file.c` exits instead of waiting on a terminal's stdin.
    std::printf("hpcgpt verify-serve — one unit per line (whitespace-"
                "separated source paths), EOF to stop\n");
    std::string line;
    std::size_t unit_no = 0;
    while (std::getline(std::cin, line)) {
      std::istringstream split(line);
      std::vector<std::string> paths;
      for (std::string token; split >> token;) paths.push_back(token);
      if (paths.empty()) continue;
      try {
        verify_unit(paths, "unit" + std::to_string(unit_no++));
      } catch (const Error& e) {
        // A bad path must not kill the serving loop.
        std::printf("error: %s\n", e.what());
      }
      std::fflush(stdout);
    }
  }
  const json::Value metrics(service.metrics().snapshot());
  const auto count = [&](const char* name) {
    return static_cast<long long>(metrics.at("counters").at(name).as_int());
  };
  std::printf("cache: %lld hits, %lld misses, %lld evictions, %lld/%zu "
              "entries\n",
              count("analysis.cache.hits"), count("analysis.cache.misses"),
              count("analysis.cache.evictions"),
              static_cast<long long>(metrics.at("gauges")
                                         .at("analysis.cache.entries")
                                         .at("value")
                                         .as_int()),
              service.options().cache_capacity);
  if (args.options.count("metrics") > 0) {
    std::printf("%s\n", service.metrics_json().c_str());
  }
  return any_errors ? 1 : 0;
}

/// `hpcgpt top`: the terminal dashboard over a /history telemetry
/// payload. A URL target polls the live endpoint once per --interval; a
/// file target renders one frame from a saved payload (useful for
/// post-mortems and tests).
int cmd_top(const Args& args) {
  require(!args.positional.empty(),
          "usage: hpcgpt top <url|file> [--interval S] [--frames N] "
          "[--plain]");
  std::string target = args.positional.front();
  const bool is_url = target.rfind("http://", 0) == 0;
  const bool plain = args.options.count("plain") > 0;
  const double interval = std::stod(opt(args, "interval", "1"));
  require(interval > 0.0, "top: --interval must be positive");
  // 0 = poll until the endpoint goes away; a file has exactly one frame.
  const std::size_t frames =
      std::stoull(opt(args, "frames", is_url ? "0" : "1"));
  while (!target.empty() && target.back() == '/') target.pop_back();

  std::size_t rendered = 0;
  while (frames == 0 || rendered < frames) {
    std::string payload;
    if (is_url) {
      obs::HttpResult r = obs::http_get(target + "/history");
      require(r.status == 200,
              "GET " + target + "/history returned HTTP " +
                  std::to_string(r.status));
      payload = std::move(r.body);
    } else {
      payload = read_file(target);
    }
    const json::Value history = json::parse(payload);
    // Home + clear between frames so the dashboard repaints in place.
    if (!plain) std::printf("\033[H\033[2J");
    std::printf("%s", obs::render_top_dashboard(history, !plain).c_str());
    std::fflush(stdout);
    ++rendered;
    if (!is_url) break;
    if (frames == 0 || rendered < frames) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    }
  }
  return 0;
}

int cmd_export_drb(const Args& args) {
  const std::string dir = opt(args, "dir", "drb_export");
  const std::string language = opt(args, "language", "both");
  std::vector<minilang::Flavor> flavors;
  if (language == "c" || language == "both") {
    flavors.push_back(minilang::Flavor::C);
  }
  if (language == "fortran" || language == "both") {
    flavors.push_back(minilang::Flavor::Fortran);
  }
  require(!flavors.empty(), "language must be c, fortran or both");

  // Plain mkdir via ofstream would fail on a missing directory; create it
  // portably with std::filesystem.
  std::filesystem::create_directories(dir);
  std::ofstream labels(dir + "/labels.csv");
  require(labels.good(), "cannot write labels.csv in " + dir);
  labels << "file,language,category,has_race\n";
  std::size_t written = 0;
  for (const minilang::Flavor flavor : flavors) {
    const auto suite = drb::evaluation_suite(flavor);
    const char* ext = flavor == minilang::Flavor::C ? ".c" : ".f90";
    for (const drb::TestCase& tc : suite) {
      const std::string filename = tc.id + ext;
      std::ofstream out(dir + "/" + filename);
      require(out.good(), "cannot write " + filename);
      out << tc.source;
      labels << filename << ',' << minilang::flavor_name(flavor) << ",\""
             << drb::category_name(tc.category) << "\"," 
             << (tc.has_race ? "yes" : "no") << "\n";
      ++written;
    }
  }
  std::printf("wrote %zu programs + labels.csv to %s/\n", written,
              dir.c_str());
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: hpcgpt <collect|train|ask|detect|eval|serve|"
               "verify-serve|top|obs|export-drb> [options]\n"
               "(see the header of tools/hpcgpt_cli.cpp)\n");
  return 2;
}

/// A subcommand and the flags it accepts: exactly the flags its cmd_*
/// reads, plus those read by the helpers it calls (apply_quant,
/// build_rag_engine, rag_options, trace capture).
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

const Command kCommands[] = {
    {"collect", cmd_collect, {"out", "seed", "scale"}},
    {"train", cmd_train,
     {"data", "out", "base", "lora", "epochs", "max-records", "workers",
      "micro-batch", "pack", "trace-out"}},
    {"ask", cmd_ask,
     {"model", "quant", "rag", "retrieval", "rag-score", "rag-top-k",
      "rag-min-score"}},
    {"detect", cmd_detect, {"model"}},
    {"eval", cmd_eval, {"model", "quant", "language"}},
    {"serve", cmd_serve,
     {"model", "quant", "batch", "max-new-tokens", "window", "kv-pages",
      "prefix-cache", "rag", "retrieval", "rag-score", "rag-top-k",
      "rag-min-score", "metrics", "metrics-port", "slo-ttft", "trace-out"}},
    {"verify-serve", cmd_verify_serve,
     {"compat", "explain", "cache", "metrics", "metrics-port"}},
    {"top", cmd_top, {"interval", "frames", "plain"}},
    {"obs", cmd_obs, {"model", "question", "compact", "format"}},
    {"export-drb", cmd_export_drb, {"dir", "language"}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  const Command* cmd = std::find_if(
      std::begin(kCommands), std::end(kCommands),
      [&](const Command& c) { return c.name == command; });
  if (cmd == std::end(kCommands)) return usage();
  const Args args = parse_args(argc, argv, 2);
  // A flag nothing reads is a typo or a removed flag; rejecting it before
  // any file or model is opened beats silently running without it.
  for (const auto& option : args.options) {
    if (std::find(cmd->flags.begin(), cmd->flags.end(), option.first) ==
        cmd->flags.end()) {
      std::fprintf(stderr, "hpcgpt: unknown option --%s for %s\n",
                   option.first.c_str(), command.c_str());
      return 2;
    }
  }
  try {
    return cmd->run(args);
  } catch (const Error& e) {
    std::fprintf(stderr, "hpcgpt: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    // Library-level validation (e.g. retrieval::engine_by_name on a bad
    // --retrieval value) throws std::invalid_argument, not hpcgpt::Error.
    std::fprintf(stderr, "hpcgpt: %s\n", e.what());
    return 1;
  }
}
