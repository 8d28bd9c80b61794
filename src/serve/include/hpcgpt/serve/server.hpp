#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/analysis/service.hpp"
#include "hpcgpt/core/generation.hpp"
#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/nn/kv_cache.hpp"
#include "hpcgpt/nn/transformer.hpp"
#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/telemetry.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/retrieval/engine.hpp"
#include "hpcgpt/serve/prefix_cache.hpp"

namespace hpcgpt::serve {

/// Paged-KV sizing and prefix-cache knobs (one section of ServeConfig).
struct KvCacheConfig {
  /// Total page budget of the serving pool. 0 derives a budget that fits
  /// max_batch worst-case streams plus (when the prefix cache is on) one
  /// stream's worth of cached prefixes. Admission reserves pages per
  /// request; requests that can never fit the budget are shed with
  /// FinishReason::Rejected instead of aborting mid-decode.
  std::size_t page_budget = 0;
  /// Radix-trie prompt cache: prompts sharing a served prefix map its
  /// pages instead of re-prefilling (serve.prefix.* metrics).
  bool prefix_cache = true;
  /// Node budget of the trie (one node per KV page chunk); LRU leaves are
  /// evicted beyond it or under pool pressure.
  std::size_t prefix_cache_max_nodes = 1024;
};

/// Serve-path retrieval augmentation (one section of ServeConfig): when
/// enabled, every generation request's prompt is augmented at submit time
/// with the top-k chunks the attached SearchEngine retrieves for it
/// (the paper's §5 RAG route, served). The engine is shared and read-only
/// here — index it before attaching; queries are const-thread-safe.
struct RagConfig {
  bool enabled = false;
  /// The retrieval engine (required when enabled). Which query path runs
  /// — scan or indexed — is the engine's own RetrievalConfig::engine;
  /// indexed is the default.
  std::shared_ptr<const retrieval::SearchEngine> engine;
  std::size_t top_k = 2;
  /// Hits below this score are dropped; a request whose hits all fall
  /// below it is served unaugmented (counted in serve.rag.skipped).
  double min_score = 0.05;
};

/// The one typed configuration surface of the inference server — serving
/// knobs, inference weight mode, paged-KV sizing and the co-hosted
/// verification service, consolidated from what used to be
/// ServerOptions plus ad-hoc CLI-side quantization. CLI `serve` flags map
/// 1:1 onto these fields (see README, "Server throughput knobs").
struct ServeConfig {
  /// Maximum number of requests decoded concurrently (continuous-batching
  /// lanes). One long generation occupies one lane; the others keep
  /// draining the queue.
  std::size_t max_batch = 2;
  /// Default generation budget per request (mirrors HpcGpt::ask's
  /// default). Requests can override it via GenerationRequest::
  /// max_new_tokens.
  std::size_t max_new_tokens = 48;
  /// When the scheduler goes idle→busy it may wait up to this long for
  /// the queue to reach max_batch before starting the first round, so a
  /// burst of near-simultaneous requests is decoded at full batch
  /// occupancy instead of trickling in one lane at a time. 0 (default)
  /// starts decoding immediately — lowest latency, lower aggregate
  /// throughput under bursts. Requests arriving mid-flight are still
  /// admitted every round regardless of this setting.
  double admission_window_seconds = 0.0;
  /// Inference weight storage applied to the served model at server
  /// construction (the load-then-quantize flow; Fp32 leaves the model as
  /// loaded). One-way, like HpcGpt::set_quant_mode.
  tensor::QuantMode quant = tensor::QuantMode::Fp32;
  /// Paged KV cache + prefix sharing.
  KvCacheConfig kv{};
  /// Knobs of the co-hosted analysis service (cache capacity, verifier
  /// options, grounding) behind the typed verification request kind.
  analysis::ServiceOptions verification{};
  /// Retrieval-augmented generation pre-stage.
  RagConfig rag{};
  /// Live telemetry (one section of ServeConfig): when telemetry.enabled
  /// the server runs an obs::TelemetryPipeline over its private registry —
  /// it ticks at telemetry.sample_interval_seconds, the SLO rules are
  /// re-evaluated each tick, and telemetry.metrics_port >= 0 exposes
  /// /metrics, /healthz, /snapshot and /history over HTTP (port 0 picks
  /// an ephemeral one; see InferenceServer::telemetry()->http_port()).
  /// default_telemetry() fills in the stock serving rule set.
  obs::TelemetryConfig telemetry{};

  /// Throws InvalidArgument on inconsistent settings (zero lanes, a page
  /// budget too small for one stream — checked against the model at
  /// server construction).
  void validate() const;
};

/// The stock SLO rule set for a serving telemetry pipeline: a TTFT
/// latency burn-rate rule (p(> ttft_threshold_seconds) against a 95%
/// objective, 5 s fast / 30 s slow windows), a shed-ratio burn-rate rule
/// (shed vs completed against a 99% objective), and a queue-depth
/// threshold rule. Returned enabled but without an HTTP port — callers
/// set telemetry.metrics_port (0 = ephemeral) to expose it.
obs::TelemetryConfig default_telemetry(double ttft_threshold_seconds = 0.25);

/// The deployment stage of Figure 1: a continuous-batching in-process
/// inference server in front of one HPC-GPT model.
///
/// Instead of serializing whole requests behind a model mutex, a single
/// scheduler thread runs the batched inference engine: queued requests
/// are admitted into up to `max_batch` decode lanes, each with its own
/// paged KV session (nn::DecodeState) over one budget-capped
/// nn::KvPagePool. submit() tokenizes the prompt on the caller's thread;
/// admission reserves worst-case pages (evicting cached prefixes under
/// pressure, shedding requests that can never fit) and maps any cached
/// prefix of the prompt from the radix-trie PrefixCache so only the
/// unseen suffix is prefilled.
/// Fresh prompts are ingested through the GEMM prefill path and their
/// prompt pages published back into the trie; then every round advances
/// all live lanes by one token through a single decode_step_batch call,
/// so the weight matrices are streamed once per round instead of once
/// per lane.
///
/// submit() takes a core::GenerationRequest and returns a future
/// core::GenerationResult carrying text, token counts, finish reason and
/// latency; shutdown() drains the queue, and submissions after shutdown
/// resolve (not throw) with FinishReason::Rejected. Every server owns a
/// private obs::MetricsRegistry — queue depth, admission latency, TTFT,
/// inter-token latency, per-round occupancy, prefix-cache hits, pages in
/// use — exported via metrics() and metrics_json(). It is the only
/// record of those values; its atomics are written outside the server
/// mutex, so one snapshot is per-metric exact but need not be consistent
/// across metrics while requests are in flight.
class InferenceServer {
 public:
  InferenceServer(core::HpcGpt& model, ServeConfig config);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueues a generation request. request.max_new_tokens == 0 uses the
  /// server default; request.id == 0 is replaced with a fresh server-
  /// assigned id (echoed in the result). The prompt is encoded here, on
  /// the caller's thread; a prompt over request.token_limit resolves at
  /// once with FinishReason::ContextLimit and its unclamped token count,
  /// as HpcGpt::generate reports it. After shutdown() — or when the
  /// request can never fit the KV page budget — the future resolves
  /// with FinishReason::Rejected rather than throwing: check
  /// GenerationResult::ok().
  std::future<core::GenerationResult> submit(core::GenerationRequest request);

  /// The second typed request kind: race verification, served alongside
  /// generation (the CI-style linting workload). The request is handed to
  /// the co-hosted analysis::VerificationService on the shared thread
  /// pool — it consumes no decode lane, so verification traffic and token
  /// generation overlap freely. After shutdown() the future resolves
  /// immediately with accepted == false (the typed-rejection contract of
  /// the generation path). A `serve.verify` span parents the service's
  /// `analysis.verify` span when tracing is armed at submit.
  std::future<analysis::VerifyResponse> submit(
      analysis::VerifyRequest request);

  /// The co-hosted analysis service (its registry carries the
  /// analysis.cache.{hits,misses,evictions} counters).
  const analysis::VerificationService& verifier() const { return verifier_; }

  /// Stops accepting requests, finishes the queued ones, joins the
  /// scheduler.
  void shutdown();

  /// The resolved configuration (derived page budget filled in).
  const ServeConfig& config() const { return config_; }

  /// The serving page pool (budget, occupancy — for tests/benches).
  const nn::KvPagePool& page_pool() const { return *pool_; }

  /// This server's private metric registry (live values). A request is
  /// counted here before its future resolves.
  const obs::MetricsRegistry& metrics() const { return registry_; }

  /// The live telemetry pipeline, or nullptr when config.telemetry is
  /// disabled. Stays up through shutdown() — the exposition endpoints
  /// keep answering while the server drains — and is torn down with the
  /// server (before the registry it samples).
  const obs::TelemetryPipeline* telemetry() const { return telemetry_.get(); }

  /// JSON snapshot: {"server": <this server's registry>, "process":
  /// <obs::MetricsRegistry::global()>} — the substrate layers (tensor,
  /// nn) record into the process registry.
  std::string metrics_json() const;

 private:
  struct Request {
    core::GenerationRequest request;
    std::vector<text::TokenId> prompt;  ///< encoded at submit, clamped
    std::promise<core::GenerationResult> promise;
    std::chrono::steady_clock::time_point submitted;
    /// Request-scoped trace (global TraceSink enabled at submit): every
    /// span this request touches — queue wait, prefix lookup, prefill,
    /// each decode round — shares trace.trace_id and parents on
    /// trace.span_id (the "serve.request" root recorded at completion).
    /// Inactive when tracing was off at submit.
    obs::TraceContext trace;
    double submitted_seconds = 0.0;  ///< sink-epoch submit timestamp
  };

  /// One continuous-batching lane: an in-flight generation session.
  struct Stream {
    Request request;
    nn::DecodeState state;
    std::vector<text::TokenId> out;
    std::size_t budget = 0;      ///< resolved per-request token budget
    std::size_t prefix_tokens = 0;  ///< prompt positions adopted from cache
    text::TokenId next = -1;     ///< candidate token (greedy argmax)
    core::FinishReason finish = core::FinishReason::Eos;
    std::chrono::steady_clock::time_point last_token;
    bool prefilled = false;
    bool published = false;      ///< prompt pages inserted into the trie
    bool done = false;
    std::exception_ptr error;

    explicit Stream(Request req, nn::DecodeState s)
        : request(std::move(req)), state(std::move(s)) {}
  };

  /// Cached references into registry_ so the scheduler hot path never
  /// takes the registry lock (names resolve once, in the constructor).
  struct Metrics {
    obs::Counter& completed;        ///< serve.requests.completed
    obs::Counter& rejected;         ///< serve.requests.rejected
    obs::Counter& shed;             ///< serve.requests.shed
    obs::Counter& verified;         ///< serve.verify.completed
    obs::Counter& verify_rejected;  ///< serve.verify.rejected
    obs::Counter& prompt_tokens;    ///< serve.tokens.prompt
    obs::Counter& generated_tokens; ///< serve.tokens.generated
    obs::Counter& rounds;           ///< serve.rounds.count
    obs::Counter& occupancy_sum;    ///< serve.rounds.occupancy_sum
    obs::Counter& prefix_hits;      ///< serve.prefix.hits
    obs::Counter& prefix_misses;    ///< serve.prefix.misses
    obs::Counter& prefix_reused;    ///< serve.prefix.tokens_reused
    obs::Counter& rag_augmented;    ///< serve.rag.augmented
    obs::Counter& rag_skipped;      ///< serve.rag.skipped
    obs::Gauge& queue_depth;        ///< serve.queue.depth (max = peak)
    obs::Gauge& lanes;              ///< serve.batch.lanes (max = peak)
    obs::Gauge& weight_bytes;       ///< serve.model.weight_bytes
    obs::Gauge& kv_pages;           ///< serve.kv.pages_in_use (max = peak)
    obs::Histogram& admission_seconds;   ///< submit → lane admission
    obs::Histogram& ttft_seconds;        ///< submit → first token
    obs::Histogram& inter_token_seconds; ///< gap between emitted tokens
    obs::Histogram& round_seconds;       ///< per-round busy time
    obs::Histogram& round_occupancy;     ///< lanes per round
    obs::Histogram& request_latency_seconds;  ///< submit → completion

    explicit Metrics(obs::MetricsRegistry& r);
  };

  void scheduler_loop();
  /// Admission (scheduler thread, outside mutex_): reserves worst-case
  /// pages (evicting cached prefixes under pressure) and maps any cached
  /// prefix. Returns the admitted stream, or nullptr when the request was
  /// shed inline — except that when the pages are merely busy and
  /// `can_wait` is true, `requeue` is set and `entry` is left intact so
  /// the scheduler can park it at the queue front.
  std::unique_ptr<Stream> admit(Request& entry, bool can_wait,
                                bool& requeue);
  /// Worst-case page reservation for a prompt of `prompt_tokens` that may
  /// generate up to `budget` tokens.
  std::size_t pages_needed(std::size_t prompt_tokens,
                           std::size_t budget) const;
  /// Runs the GEMM prefill for a freshly admitted stream over the
  /// non-cached suffix of its prompt, producing its first candidate
  /// token.
  void prefill_stream(Stream& stream);
  /// Commits the pending candidate token of a prefilled stream and marks
  /// it done when it hits EOS, the token budget or the context limit
  /// (recording which, as the stream's finish reason). Returns true when
  /// the stream still needs a decode step.
  bool emit_pending_token(Stream& stream);
  void finish_stream(Stream& stream);
  /// Resolves a request inline (shed / context-limit) without occupying
  /// a lane; `prompt_tokens` is what the result reports.
  void resolve_without_running(Request entry, core::FinishReason finish,
                               std::size_t prompt_tokens = 0);

  core::HpcGpt& model_;
  ServeConfig config_;
  obs::MetricsRegistry registry_;
  Metrics metrics_;
  analysis::VerificationService verifier_;
  /// The budget-capped serving pool every lane and the prefix cache draw
  /// from (shared_ptr: sessions keep it alive through teardown).
  std::shared_ptr<nn::KvPagePool> pool_;
  std::unique_ptr<PrefixCache> prefix_;  ///< scheduler-thread only
  /// Live telemetry over registry_ (telemetry.enabled only). Declared
  /// after registry_ so it is destroyed first — the sampling and HTTP
  /// threads never outlive the registry they sample.
  std::unique_ptr<obs::TelemetryPipeline> telemetry_;
  /// Guards queue_, stopping_, next_id_, verify_inflight_ and the
  /// serve.queue.depth gauge that mirrors queue_.size(). Every other
  /// metric write happens outside it.
  mutable std::mutex mutex_;
  std::condition_variable available_;
  std::deque<Request> queue_;
  std::thread scheduler_;
  std::uint64_t next_id_ = 1;  ///< server-assigned request ids (under mutex_)
  bool stopping_ = false;
  /// Verification tasks dispatched to the pool and not yet resolved;
  /// shutdown() waits for this to reach zero (verify_idle_) so in-flight
  /// tasks never outlive the service they run on.
  std::size_t verify_inflight_ = 0;
  std::condition_variable verify_idle_;

  // Scheduler-thread state: the shared batched-decode scratch plus the
  // per-round lane gather buffers (reused so rounds stay allocation-free).
  nn::BatchScratch batch_scratch_;
  std::vector<Stream*> round_lanes_;
  std::vector<nn::DecodeState*> round_states_;
  std::vector<text::TokenId> round_tokens_;
};

}  // namespace hpcgpt::serve
