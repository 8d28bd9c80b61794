#include "hpcgpt/serve/server.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <exception>
#include <iterator>
#include <memory>
#include <utility>

#include "hpcgpt/core/rag.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/thread_pool.hpp"
#include "hpcgpt/support/timer.hpp"
#include "hpcgpt/text/tokenizer.hpp"

namespace hpcgpt::serve {

namespace {

text::TokenId argmax(std::span<const float> logits) {
  return static_cast<text::TokenId>(std::distance(
      logits.begin(), std::max_element(logits.begin(), logits.end())));
}

double seconds_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
      .count();
}

// Lanes-per-round buckets: small integers, so each occupancy level gets
// its own bucket up to the plausible lane counts.
constexpr std::array<double, 8> kOccupancyBounds = {1, 2, 3, 4, 6, 8, 12, 16};

/// Records one request-scoped span (child of the request's root unless
/// `as_root`) into the global sink. Used for the phases whose lifetime
/// does not match a C++ scope on one thread — queue wait, the shared
/// decode round, and the submit→completion root itself.
void record_request_span(const char* name, double start_seconds,
                         double duration_seconds,
                         const obs::TraceContext& trace,
                         bool as_root = false) {
  obs::TraceEvent event;
  event.name = name;
  event.start_seconds = start_seconds;
  event.duration_seconds = duration_seconds;
  event.trace_id = trace.trace_id;
  event.span_id = as_root ? trace.span_id : obs::next_span_id();
  event.parent_id = as_root ? 0 : trace.span_id;
  obs::TraceSink::global().record(std::move(event));
}

}  // namespace

void ServeConfig::validate() const {
  require(max_batch >= 1, "ServeConfig: max_batch must be >= 1");
  require(max_new_tokens >= 1, "ServeConfig: max_new_tokens must be >= 1");
  require(admission_window_seconds >= 0.0,
          "ServeConfig: admission_window_seconds must be >= 0");
  if (kv.prefix_cache) {
    require(kv.prefix_cache_max_nodes >= 1,
            "ServeConfig: prefix cache enabled with zero node budget");
  }
  if (rag.enabled) {
    require(rag.engine != nullptr,
            "ServeConfig: rag enabled without an attached SearchEngine");
    require(rag.top_k >= 1, "ServeConfig: rag enabled with top_k == 0");
  }
  if (telemetry.enabled) {
    // Rule definitions get their own typed validation when the pipeline
    // builds its SloMonitor; only the pipeline-level knobs are checked
    // here.
    require(std::isfinite(telemetry.sample_interval_seconds),
            "ServeConfig: telemetry.sample_interval_seconds must be finite");
    require(telemetry.metrics_port <= 65535,
            "ServeConfig: telemetry.metrics_port must be <= 65535");
  }
}

obs::TelemetryConfig default_telemetry(double ttft_threshold_seconds) {
  require(ttft_threshold_seconds > 0.0,
          "default_telemetry: ttft threshold must be > 0");
  obs::TelemetryConfig config;
  config.enabled = true;

  obs::LatencyBurnRule ttft;
  ttft.name = "slo.ttft";
  ttft.histogram = "serve.ttft.seconds";
  ttft.threshold_seconds = ttft_threshold_seconds;
  ttft.objective = 0.95;
  ttft.fast_window_seconds = 5.0;
  ttft.slow_window_seconds = 30.0;
  ttft.threshold = 1.0;
  config.latency_rules.push_back(std::move(ttft));

  obs::BurnRateRule shed;
  shed.name = "slo.shed";
  shed.bad_metric = "serve.requests.shed";
  shed.good_metric = "serve.requests.completed";
  shed.objective = 0.99;
  shed.fast_window_seconds = 5.0;
  shed.slow_window_seconds = 30.0;
  shed.threshold = 1.0;
  config.burn_rules.push_back(std::move(shed));

  obs::SloRule queue;
  queue.name = "slo.queue";
  queue.metric = "serve.queue.depth";
  queue.window_seconds = 10.0;
  queue.aggregation = obs::Aggregation::Max;
  queue.comparison = obs::Comparison::Above;
  queue.threshold = 256.0;
  queue.degraded_threshold = 128.0;
  config.rules.push_back(std::move(queue));
  return config;
}

InferenceServer::Metrics::Metrics(obs::MetricsRegistry& r)
    : completed(r.counter("serve.requests.completed")),
      rejected(r.counter("serve.requests.rejected")),
      shed(r.counter("serve.requests.shed")),
      verified(r.counter("serve.verify.completed")),
      verify_rejected(r.counter("serve.verify.rejected")),
      prompt_tokens(r.counter("serve.tokens.prompt")),
      generated_tokens(r.counter("serve.tokens.generated")),
      rounds(r.counter("serve.rounds.count")),
      occupancy_sum(r.counter("serve.rounds.occupancy_sum")),
      prefix_hits(r.counter("serve.prefix.hits")),
      prefix_misses(r.counter("serve.prefix.misses")),
      prefix_reused(r.counter("serve.prefix.tokens_reused")),
      prefix_evictions(r.counter("serve.prefix.evictions")),
      rag_augmented(r.counter("serve.rag.augmented")),
      rag_skipped(r.counter("serve.rag.skipped")),
      queue_depth(r.gauge("serve.queue.depth")),
      lanes(r.gauge("serve.batch.lanes")),
      weight_bytes(r.gauge("serve.model.weight_bytes")),
      kv_pages(r.gauge("serve.kv.pages_in_use")),
      admission_seconds(r.histogram("serve.admission.seconds")),
      ttft_seconds(r.histogram("serve.ttft.seconds")),
      inter_token_seconds(r.histogram("serve.inter_token.seconds")),
      round_seconds(r.histogram("serve.round.seconds")),
      round_occupancy(r.histogram("serve.round.occupancy", kOccupancyBounds)),
      request_latency_seconds(r.histogram("serve.request.latency_seconds")) {}

InferenceServer::InferenceServer(core::HpcGpt& model, ServeConfig config)
    : model_(model),
      config_(std::move(config)),
      metrics_(registry_),
      verifier_(config_.verification) {
  if (config_.max_new_tokens == 0) config_.max_new_tokens = 48;
  config_.validate();

  // Load-then-quantize: the config owns the inference weight mode.
  if (config_.quant != tensor::QuantMode::Fp32 &&
      model_.quant_mode() != config_.quant) {
    require(model_.quant_mode() == tensor::QuantMode::Fp32,
            "ServeConfig: quant mode conflicts with an already-quantized "
            "model");
    model_.set_quant_mode(config_.quant);
  }
  config_.quant = model_.quant_mode();

  const nn::TransformerConfig& arch = model_.model().config();
  constexpr std::size_t kPage = nn::KvPagePool::kPageSize;
  // Worst-case pages of one stream, per layer: a full context plus one
  // page of copy-on-write headroom.
  const std::size_t stream_pages = (arch.max_seq + kPage - 1) / kPage + 1;
  if (config_.kv.page_budget == 0) {
    // Derived budget: max_batch worst-case streams, plus one stream's
    // worth of headroom for cached prefixes when the trie is on.
    const std::size_t streams =
        config_.max_batch + (config_.kv.prefix_cache ? 1 : 0);
    config_.kv.page_budget = streams * arch.n_layers * stream_pages;
  }
  require(config_.kv.page_budget >= arch.n_layers * 2,
          "ServeConfig: kv.page_budget too small for a single stream "
          "(need at least two pages per layer)");
  pool_ = std::make_shared<nn::KvPagePool>(arch.d_model,
                                           config_.kv.page_budget);
  if (config_.kv.prefix_cache) {
    prefix_ = std::make_unique<PrefixCache>(pool_, arch.n_layers,
                                            config_.kv.prefix_cache_max_nodes);
  }

  // Resident weight footprint of the served model (fp32 vs --quant'ed
  // int8/fp16) — a level, not a rate, so dashboards can plot the
  // quantization saving next to the throughput counters.
  metrics_.weight_bytes.set(
      static_cast<std::int64_t>(model_.model().weight_memory_bytes()));

  // Live telemetry over the private registry: collector + SLO monitor +
  // optional HTTP exposition. Started before the scheduler so the very
  // first decode rounds are already covered by history.
  if (config_.telemetry.enabled) {
    telemetry_ =
        std::make_unique<obs::TelemetryPipeline>(registry_, config_.telemetry);
    telemetry_->start();
  }
  scheduler_ = std::thread([this] { scheduler_loop(); });
}

InferenceServer::~InferenceServer() { shutdown(); }

std::future<core::GenerationResult> InferenceServer::submit(
    core::GenerationRequest request) {
  if (request.max_new_tokens == 0) {
    request.max_new_tokens = config_.max_new_tokens;
  }
  // RAG pre-stage (caller thread, engine queries are const-thread-safe):
  // splice the retrieved context into the prompt before admission, so the
  // scheduler — and the prefix cache, which sees identical augmented
  // prompts for identical questions — treats it like any other request.
  bool rag_hit = false;
  bool rag_miss = false;
  if (config_.rag.enabled) {
    HPCGPT_TRACE("serve.rag");
    std::vector<retrieval::Hit> hits =
        config_.rag.engine->top_k(request.prompt, config_.rag.top_k);
    core::trim_context(hits, config_.rag.min_score);
    if (!hits.empty()) {
      request.prompt = core::rag_prompt(hits, request.prompt);
      rag_hit = true;
    } else {
      rag_miss = true;
    }
  }
  // Encode on the caller's thread, once: the scheduler only reserves
  // pages and looks up the prefix.
  std::size_t unclamped = 0;
  Request entry;
  entry.prompt =
      model_.prompt_ids(request.prompt, request.max_new_tokens, &unclamped);
  // Typed form of the old TooLong outcome: nothing is queued or
  // ingested, and the result reports the unclamped prompt length.
  const bool over_limit =
      request.token_limit > 0 && unclamped > request.token_limit;
  entry.request = std::move(request);
  entry.submitted = std::chrono::steady_clock::now();
  {
    // Request-scoped tracing: decided once, at submit, so a request keeps
    // (or lacks) its trace consistently even if the sink toggles
    // mid-flight.
    obs::TraceSink& sink = obs::TraceSink::global();
    if (sink.enabled()) {
      entry.trace.trace_id = obs::next_trace_id();
      entry.trace.span_id = obs::next_span_id();
      entry.submitted_seconds = sink.now_seconds();
    }
  }
  if (rag_hit) metrics_.rag_augmented.add(1);
  if (rag_miss) metrics_.rag_skipped.add(1);
  std::future<core::GenerationResult> future = entry.promise.get_future();
  bool stopped = false;
  {
    std::lock_guard lock(mutex_);
    if (entry.request.id == 0) entry.request.id = next_id_++;
    stopped = stopping_;
    if (!stopped && !over_limit) {
      queue_.push_back(std::move(entry));
      metrics_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
    }
  }
  if (stopped) {
    // A request the scheduler will never see resolves (rather than
    // throws) with the typed rejection, and is counted.
    metrics_.rejected.add(1);
    core::GenerationResult rejected;
    rejected.id = entry.request.id;
    rejected.finish = core::FinishReason::Rejected;
    entry.promise.set_value(std::move(rejected));
  } else if (over_limit) {
    resolve_without_running(std::move(entry), core::FinishReason::ContextLimit,
                            unclamped);
  } else {
    available_.notify_one();
  }
  return future;
}

std::future<analysis::VerifyResponse> InferenceServer::submit(
    analysis::VerifyRequest request) {
  auto promise = std::make_shared<std::promise<analysis::VerifyResponse>>();
  std::future<analysis::VerifyResponse> future = promise->get_future();
  bool stopped = false;
  {
    std::lock_guard lock(mutex_);
    stopped = stopping_;
    if (!stopped) ++verify_inflight_;
  }
  if (stopped) {
    metrics_.verify_rejected.add(1);
    analysis::VerifyResponse rejected;
    rejected.unit = request.unit;
    rejected.accepted = false;
    promise->set_value(std::move(rejected));
    return future;
  }
  // Capture the submitter's trace context so the pool-side serve.verify
  // span (and the service's analysis.verify under it) parents on
  // whatever span the caller had open at submit time.
  const obs::TraceContext trace = obs::current_trace_context();
  auto shared = std::make_shared<analysis::VerifyRequest>(std::move(request));
  ThreadPool::global().submit([this, promise, shared, trace] {
    HPCGPT_TRACE_ADOPT(trace);
    analysis::VerifyResponse response;
    // A throwing verify still resolves the promise and releases
    // shutdown(): the client sees the exception, not a broken promise.
    std::exception_ptr failure;
    try {
      HPCGPT_TRACE("serve.verify");
      response = verifier_.verify(*shared);
    } catch (...) {
      failure = std::current_exception();
    }
    // Counted while verify_inflight_ still holds shutdown() off, so the
    // server (and its registry) is alive.
    metrics_.verified.add(1);
    {
      std::lock_guard lock(mutex_);
      --verify_inflight_;
      // Notify under the lock: once it is released a waiting shutdown()
      // may destroy the server, so `this` is not touched after the scope
      // ends (the promise is shared_ptr-owned and outlives the server).
      if (verify_inflight_ == 0) verify_idle_.notify_all();
    }
    if (failure) {
      promise->set_exception(failure);
    } else {
      promise->set_value(std::move(response));
    }
  });
  return future;
}

void InferenceServer::shutdown() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  available_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  // Verification tasks run on the shared pool, not the scheduler; wait
  // them out so none touches the service after shutdown returns (and the
  // destructor can safely tear the service down).
  std::unique_lock lock(mutex_);
  verify_idle_.wait(lock, [this] { return verify_inflight_ == 0; });
}

std::string InferenceServer::metrics_json() const {
  json::Object root;
  root["server"] = registry_.snapshot();
  root["analysis"] = verifier_.metrics().snapshot();
  root["process"] = obs::MetricsRegistry::global().snapshot();
  return json::Value(std::move(root)).dump();
}

std::size_t InferenceServer::pages_needed(std::size_t prompt_tokens,
                                          std::size_t budget) const {
  const nn::TransformerConfig& arch = model_.model().config();
  constexpr std::size_t kPage = nn::KvPagePool::kPageSize;
  // Longest sequence this stream can ever hold: prompt + generation
  // budget, clamped by the context. One extra page per layer of
  // copy-on-write headroom.
  const std::size_t worst = std::min(prompt_tokens + budget, arch.max_seq);
  const std::size_t per_layer = (worst + kPage - 1) / kPage + 1;
  return arch.n_layers * per_layer;
}

void InferenceServer::resolve_without_running(Request entry,
                                              core::FinishReason finish,
                                              std::size_t prompt_tokens) {
  const double latency = seconds_since(entry.submitted);
  if (entry.trace.active()) {
    record_request_span(
        "serve.request", entry.submitted_seconds,
        obs::TraceSink::global().now_seconds() - entry.submitted_seconds,
        entry.trace, /*as_root=*/true);
  }
  if (finish == core::FinishReason::Rejected) {
    metrics_.shed.add(1);
  } else {
    // Context-limit outcomes are served (typed result, no text), matching
    // the old prefill-side check.
    metrics_.completed.add(1);
    metrics_.request_latency_seconds.observe(latency);
  }
  core::GenerationResult result;
  result.id = entry.request.id;
  result.prompt_tokens = prompt_tokens;
  result.finish = finish;
  result.latency_seconds = latency;
  entry.promise.set_value(std::move(result));
}

std::unique_ptr<InferenceServer::Stream> InferenceServer::admit(
    Request& entry, bool can_wait, bool& requeue) {
  requeue = false;
  const std::size_t budget = entry.request.max_new_tokens;
  const std::size_t need = pages_needed(entry.prompt.size(), budget);
  if (need > pool_->capacity()) {
    // Can never fit the page budget: shed with the typed rejection
    // instead of admitting a stream doomed to exhaust the pool.
    resolve_without_running(std::move(entry), core::FinishReason::Rejected);
    return nullptr;
  }
  bool reserved = pool_->try_reserve(need);
  // Under pressure the prefix cache gives its pages back, oldest first.
  while (!reserved && prefix_ && prefix_->evict_lru()) {
    metrics_.prefix_evictions.add(1);
    reserved = pool_->try_reserve(need);
  }
  if (!reserved) {
    if (can_wait) {
      // Pages are held by in-flight streams; retiring lanes will free
      // them, so park the request at the queue front.
      requeue = true;
      return nullptr;
    }
    // No lane is active, so nothing will retire: the pages are gone for
    // good (leaked references) — shed rather than spin.
    resolve_without_running(std::move(entry), core::FinishReason::Rejected);
    return nullptr;
  }

  auto stream = std::make_unique<Stream>(
      std::move(entry), model_.model().new_decode_state(pool_));
  stream->state.set_reserved_pages(need);
  stream->budget = budget;
  const std::vector<text::TokenId>& prompt = stream->request.prompt;
  if (prefix_) {
    HPCGPT_TRACE_ADOPT(stream->request.trace);
    HPCGPT_TRACE("serve.prefix_lookup");
    // Cap at size-1 so a fully-cached prompt still prefills its final
    // token (prefill produces the first-token logits).
    PrefixCache::Match match = prefix_->lookup(prompt, prompt.size() - 1);
    if (match.tokens > 0) {
      stream->state.adopt_prefix(match.pages, match.tokens);
      stream->prefix_tokens = match.tokens;
      metrics_.prefix_hits.add(1);
      metrics_.prefix_reused.add(match.tokens);
    } else {
      metrics_.prefix_misses.add(1);
    }
  }
  return stream;
}

void InferenceServer::prefill_stream(Stream& stream) {
  // Prefill runs on a pool worker or on the scheduler thread: adopt the
  // request's trace context so the span below parents on the request
  // root instead of whatever the thread was doing.
  HPCGPT_TRACE_ADOPT(stream.request.trace);
  HPCGPT_TRACE("serve.prefill");
  // Prefill parallelism is across lanes (the scheduler's parallel_for
  // over the round's fresh lanes), never inside one lane: the tensor
  // kernels run on their calling thread.
  try {
    // Prompt ingestion: one batched GEMM pass writes the K/V rows of the
    // non-cached suffix (state.length() positions were adopted from the
    // prefix cache) and yields the first candidate token.
    const std::span<const text::TokenId> ids(stream.request.prompt);
    stream.next = argmax(
        model_.model().prefill(stream.state, ids.subspan(stream.state.length())));
    stream.prefilled = true;
  } catch (...) {
    stream.error = std::current_exception();
    stream.done = true;
  }
}

bool InferenceServer::emit_pending_token(Stream& stream) {
  // Same stop conditions as nn::generate_cached, one token per round.
  if (stream.next == text::BpeTokenizer::kEos) {
    stream.finish = core::FinishReason::Eos;
    stream.done = true;
    return false;
  }
  if (stream.out.size() >= stream.budget) {
    stream.finish = core::FinishReason::Budget;
    stream.done = true;
    return false;
  }
  if (stream.state.length() >= model_.model().config().max_seq) {
    stream.finish = core::FinishReason::ContextLimit;
    stream.done = true;
    return false;
  }
  stream.out.push_back(stream.next);
  const auto now = std::chrono::steady_clock::now();
  if (stream.out.size() == 1) {
    metrics_.ttft_seconds.observe(seconds_since(stream.request.submitted));
  } else {
    metrics_.inter_token_seconds.observe(
        std::chrono::duration<double>(now - stream.last_token).count());
  }
  stream.last_token = now;
  if (stream.out.size() >= stream.budget) {
    stream.finish = core::FinishReason::Budget;
    stream.done = true;
    return false;
  }
  if (stream.state.length() >= model_.model().config().max_seq) {
    stream.finish = core::FinishReason::ContextLimit;
    stream.done = true;
    return false;
  }
  return true;
}

void InferenceServer::finish_stream(Stream& stream) {
  const double latency = seconds_since(stream.request.submitted);
  if (stream.request.trace.active()) {
    // Root span: the whole submit→completion lifetime; the queue /
    // prefill / decode-round spans all parent on this id.
    record_request_span(
        "serve.request", stream.request.submitted_seconds,
        obs::TraceSink::global().now_seconds() - stream.request.submitted_seconds,
        stream.request.trace, /*as_root=*/true);
  }
  core::GenerationResult result;
  result.id = stream.request.request.id;
  result.prompt_tokens = stream.request.prompt.size();
  result.generated_tokens = stream.out.size();
  result.finish = stream.finish;
  result.latency_seconds = latency;
  if (!stream.error) result.text = model_.tokenizer().decode(stream.out);
  // Registry first, promise second: a client that reads metrics() right
  // after its future resolves must see its own request counted.
  metrics_.completed.add(1);
  metrics_.prompt_tokens.add(stream.request.prompt.size());
  metrics_.generated_tokens.add(stream.out.size());
  metrics_.request_latency_seconds.observe(latency);
  if (stream.error) {
    stream.request.promise.set_exception(stream.error);
  } else {
    stream.request.promise.set_value(std::move(result));
  }
}

void InferenceServer::scheduler_loop() {
  std::vector<std::unique_ptr<Stream>> active;
  std::deque<Request> admitting;
  for (;;) {
    {
      std::unique_lock lock(mutex_);
      if (active.empty()) {
        available_.wait(lock,
                        [this] { return stopping_ || !queue_.empty(); });
        // Admission window: give a burst of arrivals a short chance to
        // fill the batch so the first rounds run at full occupancy.
        if (config_.admission_window_seconds > 0.0 && !stopping_) {
          const auto deadline =
              std::chrono::steady_clock::now() +
              std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(
                      config_.admission_window_seconds));
          available_.wait_until(lock, deadline, [this] {
            return stopping_ || queue_.size() >= config_.max_batch;
          });
        }
      }
      // Continuous batching: top the batch up from the queue every round,
      // not just when it empties. Only the dequeue happens under the lock.
      while (!queue_.empty() &&
             active.size() + admitting.size() < config_.max_batch) {
        admitting.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      metrics_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
      if (active.empty() && admitting.empty()) {
        if (stopping_) return;
        continue;
      }
    }

    // Admission reserves pages and maps cached prefixes. A request whose
    // pages are busy goes back to the queue front, with the ones taken
    // behind it, until a lane retires.
    const auto now = std::chrono::steady_clock::now();
    while (!admitting.empty()) {
      bool requeue = false;
      std::unique_ptr<Stream> stream =
          admit(admitting.front(), /*can_wait=*/!active.empty(), requeue);
      if (requeue) {
        std::lock_guard lock(mutex_);
        queue_.insert(queue_.begin(),
                      std::make_move_iterator(admitting.begin()),
                      std::make_move_iterator(admitting.end()));
        metrics_.queue_depth.set(static_cast<std::int64_t>(queue_.size()));
        admitting.clear();
        break;
      }
      admitting.pop_front();
      if (!stream) continue;  // shed inline
      metrics_.admission_seconds.observe(
          std::chrono::duration<double>(now - stream->request.submitted)
              .count());
      if (stream->request.trace.active()) {
        // Queue-wait span: submit → lane admission, child of the request
        // root.
        record_request_span("serve.queue", stream->request.submitted_seconds,
                            obs::TraceSink::global().now_seconds() -
                                stream->request.submitted_seconds,
                            stream->request.trace);
      }
      active.push_back(std::move(stream));
    }
    if (active.empty()) continue;
    metrics_.lanes.set(static_cast<std::int64_t>(active.size()));

    // One scheduler round: fresh lanes get their prompt ingested through
    // the GEMM prefill (independent sessions over read-only weights, so
    // they run in parallel, each lane's GEMMs inline on its own thread),
    // then every live lane advances one token through a single
    // cross-request batched decode step.
    HPCGPT_TRACE("serve.round");
    Timer round_timer;
    // Only fresh lanes go through parallel_for: a decode-only round never
    // touches the pool, one fresh lane prefills inline, and with several
    // the scheduler thread prefills the first while pool workers take the
    // rest.
    round_fresh_.clear();
    for (auto& stream : active) {
      if (!stream->prefilled) round_fresh_.push_back(stream.get());
    }
    parallel_for(
        0, round_fresh_.size(),
        [&](std::size_t i) { prefill_stream(*round_fresh_[i]); }, 1);

    // Publish freshly prefilled prompts into the prefix cache (scheduler
    // thread only — the trie is not thread-safe). At this point the
    // stream has ingested exactly its prompt, so the retained pages hold
    // prompt-only K/V; the stream's own decode appends fork the shared
    // tail page (COW) rather than mutate it. A failed prefill leaves its
    // lane unprefilled and unpublished.
    if (prefix_) {
      const std::uint64_t evicted = prefix_->evictions();
      for (Stream* stream : round_fresh_) {
        if (stream->prefilled) {
          prefix_->insert(stream->request.prompt, stream->state);
        }
      }
      metrics_.prefix_evictions.add(prefix_->evictions() - evicted);
    }

    round_lanes_.clear();
    round_states_.clear();
    round_tokens_.clear();
    for (auto& stream : active) {
      // A fresh lane emits its prefill token here; a running lane emitted
      // its last decoded token in the round that decoded it.
      if (stream->done ||
          (stream->out.empty() && !emit_pending_token(*stream))) {
        continue;
      }
      round_lanes_.push_back(stream.get());
      round_states_.push_back(&stream->state);
      round_tokens_.push_back(stream->next);
    }
    if (!round_lanes_.empty()) {
      // The decode step is shared across lanes, so the same wall-clock
      // interval is recorded once per *traced* request — each request's
      // timeline stays complete on its own trace_id.
      bool any_traced = false;
      for (const Stream* lane : round_lanes_) {
        any_traced = any_traced || lane->request.trace.active();
      }
      const double decode_start =
          any_traced ? obs::TraceSink::global().now_seconds() : 0.0;
      try {
        const tensor::Matrix& logits = model_.model().decode_step_batch(
            round_states_, round_tokens_, batch_scratch_);
        for (std::size_t b = 0; b < round_lanes_.size(); ++b) {
          round_lanes_[b]->next = argmax(logits.row(b));
        }
      } catch (...) {
        // Batch-level failure (we pre-check per-lane preconditions, so
        // this is defensive): fail every lane that was in the batch.
        for (Stream* lane : round_lanes_) {
          lane->error = std::current_exception();
          lane->done = true;
        }
      }
      if (any_traced) {
        const double decode_dur =
            obs::TraceSink::global().now_seconds() - decode_start;
        for (const Stream* lane : round_lanes_) {
          if (lane->request.trace.active()) {
            record_request_span("serve.decode.round", decode_start,
                                decode_dur, lane->request.trace);
          }
        }
      }
      // Emit the decoded tokens now, so a lane that finishes retires in
      // this round and its slot is free for the next admission: lanes
      // admitted one round apart then realign into pairs of prefills.
      for (Stream* lane : round_lanes_) {
        if (!lane->done) emit_pending_token(*lane);
      }
    }
    const double round_seconds = round_timer.seconds();

    std::size_t retired = 0;
    for (auto& stream : active) {
      if (stream->done) {
        finish_stream(*stream);
        stream.reset();
        ++retired;
      }
    }
    if (retired > 0) {
      active.erase(std::remove(active.begin(), active.end(), nullptr),
                   active.end());
    }
    metrics_.rounds.add(1);
    metrics_.occupancy_sum.add(active.size() + retired);
    metrics_.round_occupancy.observe(
        static_cast<double>(active.size() + retired));
    metrics_.round_seconds.observe(round_seconds);
    metrics_.kv_pages.set(static_cast<std::int64_t>(pool_->pages_in_use()));
  }
}

}  // namespace hpcgpt::serve
