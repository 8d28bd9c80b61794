// Analysis-as-a-service: incremental cache correctness (cached == fresh,
// bitwise), hit/miss/eviction accounting, flavour-independent
// fingerprints, the detect+explain path, trace-span parenting, thread
// safety, and the serve::InferenceServer typed verification request.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "hpcgpt/analysis/diagnostic.hpp"
#include "hpcgpt/analysis/service.hpp"
#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/json/json.hpp"
#include "hpcgpt/minilang/ast.hpp"
#include "hpcgpt/minilang/fingerprint.hpp"
#include "hpcgpt/minilang/parse.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/retrieval/embedder.hpp"
#include "hpcgpt/serve/server.hpp"

namespace hpcgpt::analysis {
namespace {

using namespace hpcgpt::minilang;

Program vector_add() {  // race-free
  Program p;
  p.name = "vector-add";
  p.decls.push_back({"a", true, 64, 1});
  p.decls.push_back({"b", true, 64, 2});
  p.decls.push_back({"c", true, 64, 0});
  std::vector<Stmt> body;
  body.push_back(assign(array_ref("c", scalar_ref("i")),
                        bin_op('+', array_ref("a", scalar_ref("i")),
                               array_ref("b", scalar_ref("i")))));
  p.body.push_back(
      parallel_for("i", int_lit(0), int_lit(64), std::move(body)));
  return p;
}

Program loop_carried() {  // racy: a[i] depends on a[i-1]
  Program p;
  p.name = "loop-carried";
  p.decls.push_back({"a", true, 64, 1});
  std::vector<Stmt> body;
  body.push_back(assign(
      array_ref("a", scalar_ref("i")),
      bin_op('+', array_ref("a", bin_op('-', scalar_ref("i"), int_lit(1))),
             int_lit(1))));
  p.body.push_back(
      parallel_for("i", int_lit(1), int_lit(64), std::move(body)));
  return p;
}

/// A distinct race-free program per `salt` (the literal lands in the AST,
/// so every salt has its own fingerprint).
Program salted(std::int64_t salt) {
  Program p = vector_add();
  p.decls.push_back({"salt", false, 0, 0});
  p.body.push_back(assign(scalar_ref("salt"), int_lit(salt)));
  return p;
}

std::string source_of(const Program& p,
                      Flavor flavor = Flavor::C) {
  return render(p, flavor);
}

bool reports_identical(const Report& a, const Report& b) {
  if (fingerprint(a) != fingerprint(b)) return false;
  if (a.diagnostics.size() != b.diagnostics.size()) return false;
  for (std::size_t i = 0; i < a.diagnostics.size(); ++i) {
    if (!(a.diagnostics[i] == b.diagnostics[i])) return false;
  }
  return a.saw_parallel_loop == b.saw_parallel_loop &&
         a.saw_parallel_region == b.saw_parallel_region &&
         a.statements == b.statements && a.summary() == b.summary();
}

/// A counter of `registry`, read from a snapshot.
std::size_t counter(const obs::MetricsRegistry& registry, const char* name) {
  const json::Value snapshot(registry.snapshot());
  return static_cast<std::size_t>(snapshot.at("counters").at(name).as_int());
}

/// The service's cached reports (the analysis.cache.entries gauge).
std::size_t cache_entries(const VerificationService& service) {
  const json::Value snapshot(service.metrics().snapshot());
  return static_cast<std::size_t>(snapshot.at("gauges")
                                      .at("analysis.cache.entries")
                                      .at("value")
                                      .as_int());
}

// ------------------------------------------------------------- fingerprints

TEST(Fingerprint, FlavorIndependent) {
  // The raw fingerprint hashes the AST as built, and the two renderers
  // legitimately produce different ASTs for the same program (C
  // materializes declaration initializers as loops, Fortran keeps them on
  // the declaration) — the *canonical* fingerprint is the one that
  // collapses all the surfaces, and it is what the service keys on.
  const Program p = loop_carried();
  const Program from_c = parse_any(render(p, Flavor::C));
  const Program from_f = parse_any(render(p, Flavor::Fortran));
  EXPECT_EQ(minilang::canonical_fingerprint(from_c),
            minilang::canonical_fingerprint(from_f));
  EXPECT_EQ(minilang::canonical_fingerprint(from_c),
            minilang::canonical_fingerprint(p));
}

TEST(Fingerprint, NameExcludedContentIncluded) {
  Program a = vector_add();
  Program renamed = vector_add();
  renamed.name = "something-else";
  EXPECT_EQ(minilang::fingerprint(a), minilang::fingerprint(renamed));
  EXPECT_NE(minilang::fingerprint(vector_add()),
            minilang::fingerprint(loop_carried()));
  EXPECT_NE(minilang::fingerprint(salted(1)), minilang::fingerprint(salted(2)));
}

// ------------------------------------------------------------ cache basics

TEST(VerificationService, CachedReportBitwiseIdenticalToFresh) {
  VerificationService service;
  const VerifyRequest request =
      VerifyRequest::single(source_of(loop_carried()), "racy");
  const VerifyResponse fresh = service.verify(request);
  const VerifyResponse cached = service.verify(request);
  ASSERT_EQ(fresh.functions.size(), 1u);
  ASSERT_EQ(cached.functions.size(), 1u);
  EXPECT_FALSE(fresh.functions[0].cache_hit);
  EXPECT_TRUE(cached.functions[0].cache_hit);
  EXPECT_TRUE(fresh.functions[0].has_errors());
  // The cached Report is the same content, bit for bit.
  EXPECT_TRUE(
      reports_identical(fresh.functions[0].report, cached.functions[0].report));
  EXPECT_EQ(fresh.functions[0].fingerprint, cached.functions[0].fingerprint);
  // And both match a direct verifier run outside the service on the same
  // canonical normal form the service analyzes.
  const Report direct = verify(parse_any(render(loop_carried(), Flavor::C)),
                               service.options().verifier);
  EXPECT_TRUE(reports_identical(direct, cached.functions[0].report));
}

TEST(VerificationService, IncrementalReanalyzesOnlyTheEditedFunction) {
  VerificationService service;
  VerifyRequest unit;
  unit.unit = "tu";
  for (int i = 0; i < 20; ++i) {
    unit.functions.push_back(
        {"fn" + std::to_string(i), source_of(salted(i))});
  }
  const VerifyResponse first = service.verify(unit);
  EXPECT_EQ(first.cache_misses, 20u);
  EXPECT_EQ(first.cache_hits, 0u);

  unit.functions[7].source = source_of(salted(1000));  // the edit
  const VerifyResponse second = service.verify(unit);
  EXPECT_EQ(second.cache_hits, 19u);
  EXPECT_EQ(second.cache_misses, 1u);
  for (std::size_t i = 0; i < second.functions.size(); ++i) {
    EXPECT_EQ(second.functions[i].cache_hit, i != 7) << "function " << i;
  }
  EXPECT_EQ(counter(service.metrics(), "analysis.cache.hits"), 19u);
  EXPECT_EQ(counter(service.metrics(), "analysis.cache.misses"), 21u);
  EXPECT_EQ(cache_entries(service), 21u);
}

TEST(VerificationService, WhitespaceRenameAndFlavorEditsStillHit) {
  VerificationService service;
  const std::string c_source = source_of(vector_add());
  (void)service.verify(VerifyRequest::single(c_source, "original"));

  // Whitespace edit: text hash changes, AST fingerprint does not.
  std::string spaced = c_source;
  spaced.insert(spaced.find('\n'), "\n\n   ");
  const VerifyResponse ws =
      service.verify(VerifyRequest::single(spaced, "spaced"));
  EXPECT_TRUE(ws.functions[0].cache_hit);

  // Same program re-rendered in the other surface syntax: still a hit.
  const VerifyResponse fortran = service.verify(VerifyRequest::single(
      source_of(vector_add(), Flavor::Fortran), "fortran"));
  EXPECT_TRUE(fortran.functions[0].cache_hit);

  EXPECT_EQ(counter(service.metrics(), "analysis.cache.misses"), 1u);
  EXPECT_EQ(counter(service.metrics(), "analysis.cache.hits"), 2u);
  EXPECT_EQ(cache_entries(service), 1u);
}

TEST(VerificationService, AstEntryPointSharesCacheWithTextRequests) {
  VerificationService service;
  const Program p = loop_carried();
  const FunctionReport direct = service.verify_program(p, "ast");
  EXPECT_FALSE(direct.cache_hit);
  const VerifyResponse text =
      service.verify(VerifyRequest::single(source_of(p), "text"));
  EXPECT_TRUE(text.functions[0].cache_hit);
  EXPECT_TRUE(reports_identical(direct.report, text.functions[0].report));
}

TEST(VerificationService, ParseFailureIsReportedNotCached) {
  VerificationService service;
  VerifyRequest unit;
  unit.unit = "mixed";
  unit.functions.push_back({"good", source_of(vector_add())});
  unit.functions.push_back({"bad", "int main( { this is not minilang"});
  const VerifyResponse r = service.verify(unit);
  EXPECT_EQ(r.parse_failures, 1u);
  EXPECT_TRUE(r.functions[0].parsed);
  EXPECT_FALSE(r.functions[1].parsed);
  EXPECT_FALSE(r.functions[1].parse_error.empty());
  EXPECT_FALSE(r.functions[1].has_errors());  // no verdict for unparsed code
  EXPECT_EQ(cache_entries(service), 1u);
  EXPECT_NE(r.summary().find("unparsable"), std::string::npos);
}

TEST(VerificationService, LruEvictionKeepsRecentEntries) {
  ServiceOptions options;
  options.cache_capacity = 2;
  VerificationService service(options);
  (void)service.verify(VerifyRequest::single(source_of(salted(1)), "f1"));
  (void)service.verify(VerifyRequest::single(source_of(salted(2)), "f2"));
  // Touch f1 so f2 is the least recently used.
  (void)service.verify(VerifyRequest::single(source_of(salted(1)), "f1"));
  (void)service.verify(VerifyRequest::single(source_of(salted(3)), "f3"));
  EXPECT_EQ(counter(service.metrics(), "analysis.cache.evictions"), 1u);
  EXPECT_EQ(cache_entries(service), 2u);
  // f1 survived, f2 was evicted (miss on re-verify).
  EXPECT_TRUE(service.verify(VerifyRequest::single(source_of(salted(1)), "f1"))
                  .functions[0]
                  .cache_hit);
  EXPECT_FALSE(service.verify(VerifyRequest::single(source_of(salted(2)), "f2"))
                   .functions[0]
                   .cache_hit);
}

// ---------------------------------------------------------- detect+explain

TEST(VerificationService, ExplainGroundsRationaleInDrbKb) {
  VerificationService service;
  VerifyRequest request =
      VerifyRequest::single(source_of(loop_carried()), "racy");
  request.explain = true;
  const VerifyResponse r = service.verify(request);
  ASSERT_EQ(r.functions.size(), 1u);
  const FunctionReport& f = r.functions[0];
  EXPECT_EQ(f.rationale, rationale_text(f.report));
  ASSERT_FALSE(f.grounding.empty());
  const std::vector<std::string>& kb = drb_category_kb();
  for (const std::string& chunk : f.grounding) {
    EXPECT_NE(std::find(kb.begin(), kb.end(), chunk), kb.end())
        << "grounding chunk not from the DRB KB: " << chunk;
  }
  // The explanation is memoized with the cache entry: a warm explain
  // request returns exactly the same rationale and grounding.
  const VerifyResponse warm = service.verify(request);
  EXPECT_TRUE(warm.functions[0].cache_hit);
  EXPECT_EQ(warm.functions[0].rationale, f.rationale);
  EXPECT_EQ(warm.functions[0].grounding, f.grounding);
}

TEST(VerificationService, ExplainGroundingMatchesFloatCosineOracle) {
  // Grounding scores chunks by the search engine's 8-bit impacts. The
  // oracle keeps the float arithmetic instead: the top grounding_top_k KB
  // chunks by dot product of L2-normalized TF-IDF vectors (ties toward the
  // lower index), cut at grounding_min_score. Every DRB evaluation case,
  // C and Fortran, must be grounded in exactly the oracle's chunks.
  const ServiceOptions options;
  const std::vector<std::string>& kb = drb_category_kb();
  retrieval::TfidfEmbedder embedder;
  embedder.fit(kb);
  std::vector<retrieval::SparseVector> kb_vectors;
  for (const std::string& chunk : kb) {
    kb_vectors.push_back(embedder.embed(chunk));
  }
  const auto oracle = [&](const std::string& query) {
    const retrieval::SparseVector q = embedder.embed(query);
    std::vector<std::pair<double, std::size_t>> ranked;  // (score, index)
    for (std::size_t i = 0; i < kb.size(); ++i) {
      double dot = 0.0;
      auto a = q.begin();
      auto b = kb_vectors[i].begin();
      while (a != q.end() && b != kb_vectors[i].end()) {
        if (a->first < b->first) {
          ++a;
        } else if (b->first < a->first) {
          ++b;
        } else {
          dot += static_cast<double>(a->second) *
                 static_cast<double>(b->second);
          ++a;
          ++b;
        }
      }
      ranked.emplace_back(dot, i);
    }
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto& x, const auto& y) {
                       return x.first > y.first;
                     });
    std::vector<std::string> chunks;
    for (std::size_t r = 0; r < options.grounding_top_k && r < ranked.size();
         ++r) {
      if (ranked[r].first >= options.grounding_min_score) {
        chunks.push_back(kb[ranked[r].second]);
      }
    }
    return chunks;
  };

  VerificationService service(options);
  std::size_t cases = 0;
  for (const Flavor flavor : {Flavor::C, Flavor::Fortran}) {
    VerifyRequest request;
    request.explain = true;
    for (const drb::TestCase& tc : drb::evaluation_suite(flavor)) {
      request.functions.push_back({tc.id, tc.source});
    }
    for (const FunctionReport& f : service.verify(request).functions) {
      ASSERT_TRUE(f.parsed) << f.name << ": " << f.parse_error;
      std::string query = f.rationale;
      if (const Diagnostic* e = f.report.first_error()) {
        query += " " + e->variable + " " + e->message;
      }
      EXPECT_EQ(f.grounding, oracle(query)) << f.name;
      ++cases;
    }
  }
  EXPECT_EQ(cases, 343u);
}

TEST(VerificationService, ExplainOffLeavesRationaleEmpty) {
  VerificationService service;
  const VerifyResponse r = service.verify(
      VerifyRequest::single(source_of(loop_carried()), "racy"));
  EXPECT_TRUE(r.functions[0].rationale.empty());
  EXPECT_TRUE(r.functions[0].grounding.empty());
}

TEST(VerificationService, DrbKbCoversEveryCategory) {
  EXPECT_EQ(drb_category_kb().size(), drb::all_categories().size());
}

// ------------------------------------------------------------------ traces

TEST(VerificationService, VerifySpanParentsFunctionSpans) {
  obs::TraceSink& sink = obs::TraceSink::global();
  sink.set_capacity(1 << 12);
  sink.clear();
  sink.enable(true);
  VerificationService service;
  VerifyRequest unit;
  unit.unit = "traced";
  unit.functions.push_back({"f1", source_of(salted(100))});
  unit.functions.push_back({"f2", source_of(salted(101))});
  (void)service.verify(unit);
  sink.enable(false);

  std::uint64_t verify_span = 0, verify_trace = 0;
  std::size_t function_spans = 0;
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.name == "analysis.verify") {
      verify_span = e.span_id;
      verify_trace = e.trace_id;
    }
  }
  ASSERT_NE(verify_span, 0u) << "no analysis.verify span recorded";
  for (const obs::TraceEvent& e : sink.events()) {
    if (e.name == "analysis.function") {
      ++function_spans;
      EXPECT_EQ(e.parent_id, verify_span);
      EXPECT_EQ(e.trace_id, verify_trace);
    }
  }
  EXPECT_EQ(function_spans, 2u);
  sink.clear();
}

// ------------------------------------------------------------- concurrency

TEST(VerificationService, ConcurrentVerifyIsSafeAndConsistent) {
  VerificationService service;
  VerifyRequest unit;
  unit.unit = "hammer";
  for (int i = 0; i < 8; ++i) {
    unit.functions.push_back({"fn" + std::to_string(i),
                              source_of(salted(200 + i))});
  }
  const VerifyResponse reference = service.verify(unit);
  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::vector<std::thread> threads;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIters; ++i) {
        const VerifyResponse r = service.verify(unit);
        for (std::size_t k = 0; k < r.functions.size(); ++k) {
          if (!reports_identical(r.functions[k].report,
                                 reference.functions[k].report)) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cache_entries(service), 8u);
}

// ----------------------------------------------------------------- serving

core::HpcGpt tiny_model() {
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
  spec.pretrain_steps = 0;
  return core::HpcGpt(spec, core::build_shared_tokenizer());
}

TEST(ServeVerify, TypedVerificationRequestsServeAlongsideGeneration) {
  core::HpcGpt model = tiny_model();
  serve::InferenceServer server(model, serve::ServeConfig{.max_batch = 2});
  VerifyRequest racy = VerifyRequest::single(source_of(loop_carried()), "racy");
  racy.explain = true;
  std::future<VerifyResponse> v1 = server.submit(std::move(racy));
  core::GenerationRequest gen;
  gen.prompt = "What is a data race?";
  gen.max_new_tokens = 4;
  std::future<core::GenerationResult> g = server.submit(std::move(gen));
  std::future<VerifyResponse> v2 = server.submit(
      VerifyRequest::single(source_of(vector_add()), "clean"));

  const VerifyResponse r1 = v1.get();
  const VerifyResponse r2 = v2.get();
  EXPECT_TRUE(r1.accepted);
  EXPECT_TRUE(r1.has_errors());
  EXPECT_FALSE(r1.functions[0].rationale.empty());
  EXPECT_TRUE(r2.accepted);
  EXPECT_FALSE(r2.has_errors());
  EXPECT_TRUE(g.get().ok());

  server.shutdown();
  EXPECT_EQ(counter(server.metrics(), "serve.verify.completed"), 2u);
  EXPECT_EQ(counter(server.metrics(), "serve.verify.rejected"), 0u);
  EXPECT_EQ(counter(server.metrics(), "serve.requests.completed"), 1u);
  // The co-hosted service's registry is part of the server's obs surface.
  EXPECT_NE(server.metrics_json().find("analysis.cache.hits"),
            std::string::npos);
  EXPECT_EQ(cache_entries(server.verifier()), 2u);
}

TEST(ServeVerify, SubmitAfterShutdownResolvesRejected) {
  core::HpcGpt model = tiny_model();
  serve::InferenceServer server(model, serve::ServeConfig{.max_batch = 1});
  server.shutdown();
  VerifyRequest request =
      VerifyRequest::single(source_of(vector_add()), "late");
  request.unit = "late-unit";
  const VerifyResponse r = server.submit(std::move(request)).get();
  EXPECT_FALSE(r.accepted);
  EXPECT_TRUE(r.functions.empty());
  EXPECT_EQ(r.unit, "late-unit");
  EXPECT_EQ(counter(server.metrics(), "serve.verify.rejected"), 1u);
}

}  // namespace
}  // namespace hpcgpt::analysis
