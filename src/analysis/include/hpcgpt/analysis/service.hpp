#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "hpcgpt/analysis/verifier.hpp"
#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/retrieval/engine.hpp"

namespace hpcgpt::analysis {

/// The DRB category knowledge base: one chunk per DataRaceBench category
/// (Table 3), describing the pattern and why it does or does not race.
/// This is the grounding corpus behind the service's "detect + explain"
/// path — rationales are matched against it by a retrieval::SearchEngine
/// (TF-IDF impacts), so every explanation ships with the catalogue entries
/// it is grounded in (the RAG analogue of the paper's §5 LangChain route,
/// applied to Task 2).
const std::vector<std::string>& drb_category_kb();

/// Knobs of one VerificationService instance.
struct ServiceOptions {
  /// Analysis configuration shared by every request this service answers
  /// (part of the cache key — services with different options never
  /// share results, even behind the same fingerprints).
  VerifierOptions verifier;
  /// LRU bound on cached function reports. Oldest-used entries are
  /// evicted past this (analysis.cache.evictions counts them).
  std::size_t cache_capacity = 1024;
  /// Build the DRB category retriever so explain-mode responses carry
  /// grounding chunks. Off saves the embedder for metric-only workloads.
  bool ground_rationales = true;
  /// Grounding chunks attached per explained function.
  std::size_t grounding_top_k = 2;
  /// Retrieval-score floor below which a KB chunk is considered unrelated.
  double grounding_min_score = 0.02;
};

/// One function of a translation unit, as source text (C- or
/// Fortran-flavoured mini-language; the service dispatches on syntax).
struct FunctionInput {
  std::string name;
  std::string source;
};

/// A verification request: one translation unit of one or more functions.
/// CI-style traffic re-submits the whole unit after every edit; the
/// service re-analyzes only the functions whose content hash changed.
struct VerifyRequest {
  std::string unit = "unit";
  std::vector<FunctionInput> functions;
  /// Detect + explain: attach the Task-2 rationale (rationale_text) and
  /// its DRB-KB grounding to every function report.
  bool explain = false;

  /// Whole-source convenience: one unit holding one function.
  static VerifyRequest single(std::string source, std::string name = "fn",
                              bool explain = false);
};

/// Per-function outcome. `report` is exactly what a direct verify() of
/// the function yields — cached and fresh results are bitwise-identical
/// (fingerprint(report) pins this down in tests).
struct FunctionReport {
  std::string name;
  std::uint64_t fingerprint = 0;  ///< AST content hash (cache identity)
  bool parsed = false;            ///< false: source outside the subset
  bool cache_hit = false;
  std::string parse_error;        ///< set when !parsed
  Report report;
  std::string rationale;               ///< explain mode only
  std::vector<std::string> grounding;  ///< explain mode: DRB KB chunks
  bool has_errors() const { return report.has_errors(); }
};

/// Response for one unit: per-function reports in request order plus the
/// request-level cache accounting.
struct VerifyResponse {
  std::string unit;
  /// False when the owning server was shutting down (the request was
  /// never analyzed) — the typed-rejection analogue of generation's
  /// FinishReason::Rejected.
  bool accepted = true;
  std::vector<FunctionReport> functions;
  std::size_t cache_hits = 0;
  std::size_t cache_misses = 0;
  std::size_t parse_failures = 0;

  bool has_errors() const;
  /// "unit: 20 functions (19 cached), 3 with errors".
  std::string summary() const;
};

/// Analysis-as-a-service: the PR 1 static verifier behind an incremental,
/// cached, thread-safe request surface.
///
/// Each function of a request is content-addressed twice: first by a hash
/// of its raw source text (a warm re-submission skips parsing entirely),
/// then — after parsing — by the structural fingerprint of its AST, so
/// whitespace edits, renames and even C↔Fortran re-renderings of the same
/// program all resolve to one cached Report. Misses fan out across the
/// shared ThreadPool (per-function `analysis.function` spans parented
/// under the request's `analysis.verify` span via the PR 5 trace
/// context); hits are a hash + LRU touch + copy. The result cache is
/// LRU-bounded (options().cache_capacity) with
/// `analysis.cache.{hits,misses,evictions}` counters and the
/// `analysis.cache.entries` gauge in the service's private registry.
///
/// Reports are deterministic, so a cached copy is bitwise-identical to a
/// fresh run — the property that makes serving cached verdicts sound.
/// verify() is safe to call from any number of threads concurrently.
class VerificationService {
 public:
  explicit VerificationService(ServiceOptions options = {});

  /// Analyzes one unit, serving per-function results from cache where
  /// content hashes match and analyzing the rest in parallel.
  VerifyResponse verify(const VerifyRequest& request);

  /// AST-level entry point (no parse): used by callers that already hold
  /// a Program (generators, tests). Shares the same cache.
  FunctionReport verify_program(const minilang::Program& program,
                                std::string name = "fn",
                                bool explain = false);

  void clear_cache();

  /// Private registry: analysis.requests, analysis.functions,
  /// analysis.cache.{hits,misses,evictions}, the analysis.cache.entries
  /// gauge, analysis.parse_failures, analysis.verify.seconds.
  const obs::MetricsRegistry& metrics() const { return registry_; }
  /// Mutable overload so a telemetry pipeline can attach to the service
  /// registry (the collector records its obs.collector.* self-metrics
  /// into the registry it samples).
  obs::MetricsRegistry& metrics() { return registry_; }
  std::string metrics_json() const { return registry_.snapshot_json(); }
  const ServiceOptions& options() const { return options_; }

 private:
  struct Entry {
    std::uint64_t fingerprint = 0;
    Report report;
    bool explained = false;  ///< rationale/grounding computed yet?
    std::string rationale;
    std::vector<std::string> grounding;
    /// Source-text hashes aliased to this entry (typically the C and the
    /// Fortran rendering); unregistered from text_index_ on eviction.
    std::vector<std::uint64_t> text_hashes;
    std::list<std::uint64_t>::iterator lru;  ///< position in lru_
  };

  /// Cache lookup/analyze for one parsed function; `text_hash` != 0
  /// registers a text alias for parse-free warm hits.
  void process_program(const minilang::Program& program,
                       std::uint64_t text_hash, bool explain,
                       FunctionReport& out);
  /// Fills rationale + grounding on `out` from its report, reusing the
  /// entry's memoized copy when available (both are deterministic).
  void explain_report(std::uint64_t key, FunctionReport& out);
  void touch_locked(Entry& entry);
  /// Evicts past the capacity and sets the entries gauge (under mutex_).
  void evict_locked();

  ServiceOptions options_;
  std::uint64_t options_hash_ = 0;  ///< VerifierOptions folded into keys
  obs::MetricsRegistry registry_;
  obs::Counter& requests_;
  obs::Counter& functions_;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Counter& parse_failures_;
  obs::Counter& errors_found_;
  obs::Gauge& entries_;
  obs::Histogram& verify_seconds_;

  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, Entry> cache_;       // key → entry
  std::unordered_map<std::uint64_t, std::uint64_t> text_index_;  // text → key
  std::list<std::uint64_t> lru_;  ///< keys, most recently used first

  std::unique_ptr<retrieval::SearchEngine> grounding_engine_;
};

}  // namespace hpcgpt::analysis
