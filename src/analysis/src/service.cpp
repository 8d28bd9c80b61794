#include "hpcgpt/analysis/service.hpp"

#include <utility>

#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/minilang/fingerprint.hpp"
#include "hpcgpt/minilang/parse.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/hash.hpp"
#include "hpcgpt/support/thread_pool.hpp"
#include "hpcgpt/support/timer.hpp"

namespace hpcgpt::analysis {

namespace {

/// What makes each DataRaceBench category (not) race — phrased with the
/// verifier's own vocabulary (shared writes, clauses, barriers, loop-
/// carried dependences) so TF-IDF retrieval lands rationales on the
/// right catalogue rows.
std::string category_blurb(drb::Category c) {
  using drb::Category;
  switch (c) {
    case Category::UnresolvableDependences:
      return "a parallel loop carries a dependence between iterations "
             "(a[i] written from a[i-1] or a coupled subscript no test can "
             "refute), so concurrent iterations conflict on the array";
    case Category::MissingDataSharingClauses:
      return "a scalar shared by default is written by every thread "
             "without a private, firstprivate or reduction clause, so the "
             "writes race";
    case Category::MissingSynchronization:
      return "threads in a parallel region access shared data without a "
             "barrier, critical section or atomic between the conflicting "
             "phases";
    case Category::SimdDataRaces:
      return "an omp simd loop carries a dependence between vector lanes, "
             "so simultaneous lanes conflict on the same element";
    case Category::AcceleratorDataRaces:
      return "an omp target teams loop writes shared data concurrently on "
             "the device without scoping or synchronization";
    case Category::UndefinedBehavior:
      return "the outcome depends on input or thread count (a conditional "
             "write guards the conflict), so the race is input-dependent "
             "undefined behavior";
    case Category::NumericalKernelDataRaces:
      return "a numerical kernel accumulates into a shared scalar or "
             "overlapping array cells without a reduction clause";
    case Category::SingleThreadExecution:
      return "the conflicting statements run single-threaded (master or "
             "single construct, or a sequential loop), so no two threads "
             "touch the data concurrently";
    case Category::UseOfDataSharingClauses:
      return "private, firstprivate and reduction clauses give every "
             "thread its own copy of the written scalars, so no shared "
             "write remains";
    case Category::UseOfSynchronization:
      return "barriers, critical sections and atomic updates order the "
             "conflicting accesses, so the shared updates cannot "
             "interleave";
    case Category::UseOfSimdDirectives:
      return "the omp simd loop writes each element from its own "
             "iteration only, with no loop-carried dependence between "
             "lanes";
    case Category::UseOfAcceleratorDirectives:
      return "the omp target teams loop partitions elements across "
             "device threads disjointly, so device iterations never "
             "conflict";
    case Category::UseOfSpecialLanguageFeatures:
      return "language features (thread ids indexing disjoint cells, "
             "explicit masters) keep every thread on its own data";
    case Category::NumericalKernels:
      return "the numerical kernel writes disjoint elements per "
             "iteration; subscript tests prove all accesses independent";
  }
  return "";
}

}  // namespace

const std::vector<std::string>& drb_category_kb() {
  static const std::vector<std::string> kb = [] {
    std::vector<std::string> chunks;
    chunks.reserve(drb::kCategoryCount);
    for (drb::Category c : drb::all_categories()) {
      chunks.push_back(drb::category_name(c) + " (" +
                       (drb::category_has_race(c) ? "racy" : "race-free") +
                       "): " + category_blurb(c) + ".");
    }
    return chunks;
  }();
  return kb;
}

VerifyRequest VerifyRequest::single(std::string source, std::string name,
                                    bool explain) {
  VerifyRequest request;
  request.unit = name;
  request.functions.push_back({std::move(name), std::move(source)});
  request.explain = explain;
  return request;
}

bool VerifyResponse::has_errors() const {
  for (const FunctionReport& f : functions) {
    if (f.has_errors()) return true;
  }
  return false;
}

std::string VerifyResponse::summary() const {
  std::size_t with_errors = 0;
  for (const FunctionReport& f : functions) {
    if (f.has_errors()) ++with_errors;
  }
  std::string s = unit + ": " + std::to_string(functions.size()) +
                  (functions.size() == 1 ? " function" : " functions") + " (" +
                  std::to_string(cache_hits) + " cached), " +
                  std::to_string(with_errors) + " with errors";
  if (parse_failures > 0) {
    s += ", " + std::to_string(parse_failures) + " unparsable";
  }
  return s;
}

namespace {

std::uint64_t hash_options(const VerifierOptions& o) {
  Fnv1aHasher h;
  h.u8(o.verify_regions ? 1 : 0);
  h.u8(o.deep_traversal ? 1 : 0);
  h.u8(o.exhaustive ? 1 : 0);
  h.u8(o.scoping.extended_lints ? 1 : 0);
  h.u8(o.dependence.gcd_test ? 1 : 0);
  h.u8(o.dependence.range_test ? 1 : 0);
  h.u8(o.dependence.notes ? 1 : 0);
  return h.value();
}

std::uint64_t cache_key(std::uint64_t fingerprint, std::uint64_t options) {
  Fnv1aHasher h;
  h.u64(fingerprint);
  h.u64(options);
  return h.value();
}

}  // namespace

VerificationService::VerificationService(ServiceOptions options)
    : options_(std::move(options)),
      options_hash_(hash_options(options_.verifier)),
      requests_(registry_.counter("analysis.requests")),
      functions_(registry_.counter("analysis.functions")),
      hits_(registry_.counter("analysis.cache.hits")),
      misses_(registry_.counter("analysis.cache.misses")),
      evictions_(registry_.counter("analysis.cache.evictions")),
      parse_failures_(registry_.counter("analysis.parse_failures")),
      errors_found_(registry_.counter("analysis.errors_found")),
      entries_(registry_.gauge("analysis.cache.entries")),
      verify_seconds_(registry_.histogram("analysis.verify.seconds")) {
  if (options_.cache_capacity == 0) options_.cache_capacity = 1;
  if (options_.ground_rationales) {
    retrieval::TfidfEmbedder embedder;
    embedder.fit(drb_category_kb());
    grounding_engine_ =
        std::make_unique<retrieval::SearchEngine>(std::move(embedder));
    grounding_engine_->add_all(drb_category_kb());
  }
}

void VerificationService::touch_locked(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru);
}

void VerificationService::evict_locked() {
  while (cache_.size() > options_.cache_capacity && !lru_.empty()) {
    const std::uint64_t key = lru_.back();
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      for (std::uint64_t th : it->second.text_hashes) {
        const auto alias = text_index_.find(th);
        if (alias != text_index_.end() && alias->second == key) {
          text_index_.erase(alias);
        }
      }
      cache_.erase(it);
    }
    lru_.pop_back();
    evictions_.add(1);
  }
  entries_.set(static_cast<std::int64_t>(cache_.size()));
}

void VerificationService::process_program(const minilang::Program& program,
                                          std::uint64_t text_hash,
                                          bool explain, FunctionReport& out) {
  out.parsed = true;
  // Fingerprint *and analyze* the canonical C-render → parse normal form
  // (see minilang::canonical_fingerprint): the renderers represent
  // declaration initializers differently, so analyzing the as-parsed AST
  // would give the same cache key different statement numbering depending
  // on which surface arrived first. One representative per equivalence
  // class keeps cached and fresh reports bitwise-identical.
  const minilang::Program normal =
      minilang::parse_any(minilang::render(program, minilang::Flavor::C));
  out.fingerprint = minilang::fingerprint(normal);
  const std::uint64_t key = cache_key(out.fingerprint, options_hash_);
  {
    std::lock_guard lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end()) {
      touch_locked(it->second);
      out.cache_hit = true;
      out.report = it->second.report;
      if (text_hash != 0 &&
          text_index_.try_emplace(text_hash, key).second) {
        it->second.text_hashes.push_back(text_hash);
      }
      hits_.add(1);
    }
  }
  if (!out.cache_hit) {
    misses_.add(1);
    {
      HPCGPT_TRACE("analysis.function");
      // Qualified: the member verify(VerifyRequest) shadows the pass
      // runner inside the class.
      out.report = analysis::verify(normal, options_.verifier);
    }
    std::lock_guard lock(mutex_);
    const auto [it, inserted] = cache_.try_emplace(key);
    if (inserted) {
      it->second.fingerprint = out.fingerprint;
      it->second.report = out.report;
      lru_.push_front(key);
      it->second.lru = lru_.begin();
    } else {
      // A concurrent worker analyzed the same content first; both ran the
      // deterministic verifier, so the results are identical.
      touch_locked(it->second);
    }
    if (text_hash != 0 && text_index_.try_emplace(text_hash, key).second) {
      it->second.text_hashes.push_back(text_hash);
    }
    evict_locked();
  }
  if (out.has_errors()) errors_found_.add(1);
  if (explain) explain_report(key, out);
}

void VerificationService::explain_report(std::uint64_t key,
                                         FunctionReport& out) {
  {
    std::lock_guard lock(mutex_);
    const auto it = cache_.find(key);
    if (it != cache_.end() && it->second.explained) {
      out.rationale = it->second.rationale;
      out.grounding = it->second.grounding;
      return;
    }
  }
  // Both products are deterministic functions of the report, so a
  // concurrent duplicate computation memoizes the same values.
  out.rationale = rationale_text(out.report);
  out.grounding.clear();
  if (grounding_engine_ != nullptr) {
    std::string query = out.rationale;
    if (const Diagnostic* e = out.report.first_error()) {
      query += " " + e->variable + " " + e->message;
    }
    for (const retrieval::Hit& hit :
         grounding_engine_->top_k(query, options_.grounding_top_k)) {
      if (hit.score >= options_.grounding_min_score) {
        out.grounding.push_back(hit.text);
      }
    }
  }
  std::lock_guard lock(mutex_);
  const auto it = cache_.find(key);
  if (it != cache_.end() && !it->second.explained) {
    it->second.rationale = out.rationale;
    it->second.grounding = out.grounding;
    it->second.explained = true;
  }
}

VerifyResponse VerificationService::verify(const VerifyRequest& request) {
  HPCGPT_TRACE("analysis.verify");
  Timer timer;
  requests_.add(1);
  functions_.add(request.functions.size());

  VerifyResponse response;
  response.unit = request.unit;
  response.functions.resize(request.functions.size());

  // Text-level pass: an exact re-submission of an already-analyzed
  // function resolves without parsing (the dominant warm-cache path).
  std::vector<std::size_t> pending;
  pending.reserve(request.functions.size());
  for (std::size_t i = 0; i < request.functions.size(); ++i) {
    FunctionReport& out = response.functions[i];
    out.name = request.functions[i].name;
    const std::uint64_t text_hash = fnv1a(request.functions[i].source);
    std::uint64_t key = 0;
    bool text_hit = false;
    {
      std::lock_guard lock(mutex_);
      const auto alias = text_index_.find(text_hash);
      if (alias != text_index_.end()) {
        const auto it = cache_.find(alias->second);
        if (it != cache_.end()) {
          touch_locked(it->second);
          key = alias->second;
          text_hit = true;
          out.parsed = true;
          out.cache_hit = true;
          out.fingerprint = it->second.fingerprint;
          out.report = it->second.report;
          hits_.add(1);
        }
      }
    }
    if (text_hit) {
      if (out.has_errors()) errors_found_.add(1);
      if (request.explain) explain_report(key, out);
    } else {
      pending.push_back(i);
    }
  }

  // Everything else parses and analyzes in parallel; each worker adopts
  // the request's analysis.verify span as parent, so per-function spans
  // nest under it in the trace.
  if (!pending.empty()) {
    const obs::TraceContext context = obs::current_trace_context();
    parallel_for(0, pending.size(), [&](std::size_t j) {
      HPCGPT_TRACE_ADOPT(context);
      const std::size_t i = pending[j];
      const FunctionInput& input = request.functions[i];
      FunctionReport& out = response.functions[i];
      minilang::Program program;
      try {
        program = minilang::parse_any(input.source);
      } catch (const Error& e) {
        out.parsed = false;
        out.parse_error = e.what();
        parse_failures_.add(1);
        return;
      }
      process_program(program, fnv1a(input.source), request.explain, out);
    });
  }

  for (const FunctionReport& f : response.functions) {
    if (!f.parsed) {
      ++response.parse_failures;
    } else if (f.cache_hit) {
      ++response.cache_hits;
    } else {
      ++response.cache_misses;
    }
  }
  verify_seconds_.observe(timer.seconds());
  return response;
}

FunctionReport VerificationService::verify_program(
    const minilang::Program& program, std::string name, bool explain) {
  HPCGPT_TRACE("analysis.verify");
  Timer timer;
  requests_.add(1);
  functions_.add(1);
  FunctionReport out;
  out.name = std::move(name);
  process_program(program, 0, explain, out);
  verify_seconds_.observe(timer.seconds());
  return out;
}

void VerificationService::clear_cache() {
  std::lock_guard lock(mutex_);
  cache_.clear();
  text_index_.clear();
  lru_.clear();
  entries_.set(0);
}

}  // namespace hpcgpt::analysis
