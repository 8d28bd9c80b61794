// Retrieval-engine throughput: the indexed (WAND) query path vs the
// brute-force scan over one shared index.
//
//   bench_retrieval [--docs N] [--queries N]
//
// Builds a synthetic MLPerf-style knowledge base (default 10^5 records;
// HPCGPT_FAST=1 drops to 10^4), indexes it once, then runs the same query
// set through both engine paths, measuring per-query latency and QPS.
// Before reporting it cross-checks that the indexed ranking is identical
// to the scan's (ids AND scores) and exits non-zero on any mismatch, so
// the numbers can never come from a wrong answer. Any other argument
// prints the usage and exits 2.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "hpcgpt/kb/kb.hpp"
#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/support/strings.hpp"
#include "hpcgpt/retrieval/engine.hpp"
#include "hpcgpt/support/rng.hpp"

using namespace hpcgpt;
using Clock = std::chrono::steady_clock;

namespace {

struct PathResult {
  double qps = 0.0;
  double p95_seconds = 0.0;
  std::vector<double> latencies;                  // per query, unsorted
  std::vector<std::vector<retrieval::Hit>> hits;  // per query
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The record's words sorted longest-first, tokenized exactly the way
/// TfidfEmbedder does (whitespace split, edge punctuation stripped,
/// lowercased) so every sampled word is in-vocabulary. Synthetic KB
/// records carry their content in long tokens (unique system id,
/// accelerator, software, benchmark names) and their template glue in
/// short ones, so a length sort surfaces exactly the words a user would
/// put in a question.
std::vector<std::string> content_words(const std::string& record) {
  std::vector<std::string> words = strings::normalized_words(record);
  std::stable_sort(words.begin(), words.end(),
                   [](const std::string& a, const std::string& b) {
                     return a.size() > b.size();
                   });
  return words;
}

PathResult run_path(const retrieval::SearchEngine& engine,
                    const std::vector<std::string>& queries, std::size_t k,
                    retrieval::RetrievalConfig::Engine path) {
  PathResult r;
  r.hits.reserve(queries.size());
  r.latencies.reserve(queries.size());
  // Warmup: touch the code path once outside the timed loop.
  (void)engine.top_k_with(queries.front(), k, path);
  const Clock::time_point start = Clock::now();
  for (const std::string& q : queries) {
    const Clock::time_point t0 = Clock::now();
    r.hits.push_back(engine.top_k_with(q, k, path));
    r.latencies.push_back(seconds_since(t0));
  }
  const double total = seconds_since(start);
  r.qps = static_cast<double>(queries.size()) / total;
  std::vector<double> latencies = r.latencies;
  std::sort(latencies.begin(), latencies.end());
  // p95 = ceil(0.95 * n)-th order statistic.
  const std::size_t rank = (latencies.size() * 95 + 99) / 100;
  r.p95_seconds = latencies[rank == 0 ? 0 : rank - 1];
  return r;
}

bool same_ranking(const PathResult& want, const PathResult& got,
                  const char* label) {
  for (std::size_t q = 0; q < want.hits.size(); ++q) {
    if (want.hits[q].size() != got.hits[q].size()) {
      std::fprintf(stderr, "FAIL[%s] query %zu: %zu hits vs %zu\n", label, q,
                   got.hits[q].size(), want.hits[q].size());
      return false;
    }
    for (std::size_t i = 0; i < want.hits[q].size(); ++i) {
      if (want.hits[q][i].index != got.hits[q][i].index ||
          want.hits[q][i].score != got.hits[q][i].score) {
        std::fprintf(stderr,
                     "FAIL[%s] query %zu rank %zu: doc %zu score %.17g vs "
                     "doc %zu score %.17g\n",
                     label, q, i, got.hits[q][i].index, got.hits[q][i].score,
                     want.hits[q][i].index, want.hits[q][i].score);
        return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t n_docs = bench::fast_mode() ? 10000 : 100000;
  std::size_t n_queries = 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--docs") == 0 && i + 1 < argc) {
      n_docs = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--queries") == 0 && i + 1 < argc) {
      n_queries = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else {
      std::fprintf(stderr, "usage: %s [--docs N] [--queries N]\n", argv[0]);
      return 2;
    }
  }

  bench::banner("Retrieval engine: scan vs indexed (WAND)");
  std::printf("corpus: %zu synthetic KB records, %zu queries, k=10\n", n_docs,
              n_queries);

  const std::vector<std::string> corpus =
      kb::synthetic_retrieval_corpus(n_docs, 2023);

  Clock::time_point t0 = Clock::now();
  retrieval::TfidfEmbedder embedder;
  embedder.fit(corpus);
  const double fit_s = seconds_since(t0);

  t0 = Clock::now();
  retrieval::SearchEngine engine{embedder, {}};
  engine.add_all(corpus);
  const double index_s = seconds_since(t0);

  const retrieval::InvertedIndex::Stats& stats = engine.stats();
  bench::section("index");
  std::printf("fit: %.2fs  index: %.2fs (%.0f docs/s)\n", fit_s, index_s,
              static_cast<double>(n_docs) / index_s);
  std::printf("docs=%zu postings=%zu distinct_terms=%zu\n", stats.docs,
              stats.postings, stats.distinct_terms);
  std::printf("compressed=%.1f MiB (%.2f bytes/posting)\n",
              static_cast<double>(stats.compressed_bytes) / (1024.0 * 1024.0),
              static_cast<double>(stats.compressed_bytes) /
                  static_cast<double>(std::max<std::size_t>(stats.postings, 1)));

  // Query mix, shaped like RAG questions rather than pasted records:
  // 3/4 name a specific system by its unique id ("tell me about sysN" —
  // a needle query, one matching document), 1/4 name an accelerator /
  // software / benchmark combination (medium document frequency, the
  // WAND stress case: tens of thousands of candidate docs, pruned by
  // impact upper bounds).
  Rng rng(7);
  std::vector<std::string> queries;
  queries.reserve(n_queries);
  for (std::size_t q = 0; q < n_queries; ++q) {
    const std::string& record = corpus[rng.next_below(corpus.size())];
    std::vector<std::string> words = content_words(record);
    std::string sys_id;
    for (auto it = words.begin(); it != words.end(); ++it) {
      if (it->rfind("sys", 0) == 0 && it->size() > 3) {
        sys_id = *it;
        words.erase(it);
        break;
      }
    }
    std::string question;
    if (q % 4 != 3) {
      question = "tell me about " + sys_id;
    } else {
      question = "which mlperf system uses";
      for (std::size_t w = 0; w < words.size() && w < 4; ++w) {
        question += " " + words[w];
      }
    }
    queries.push_back(std::move(question));
  }

  constexpr std::size_t kTopK = 10;
  const PathResult scan =
      run_path(engine, queries, kTopK, retrieval::RetrievalConfig::Engine::Scan);
  const PathResult indexed = run_path(
      engine, queries, kTopK, retrieval::RetrievalConfig::Engine::Indexed);

  if (!same_ranking(scan, indexed, "indexed")) {
    std::fprintf(stderr, "ranking equivalence violated; refusing to report\n");
    return 1;
  }

  bench::section("query paths (rankings verified identical to scan)");
  std::printf("%-8s %12s %16s %10s\n", "path", "qps", "p95 latency", "vs scan");
  const auto row = [&](const char* name, const PathResult& r) {
    std::printf("%-8s %12.1f %13.3f ms %9.1fx\n", name, r.qps,
                r.p95_seconds * 1e3, r.qps / scan.qps);
  };
  row("scan", scan);
  row("indexed", indexed);

  // Per-class indexed latency (needle vs medium-df) plus the WAND work
  // counters the engine publishes — the knobs to watch when tuning.
  double needle_ms = 0.0, medium_ms = 0.0;
  std::size_t needles = 0, mediums = 0;
  for (std::size_t q = 0; q < indexed.latencies.size(); ++q) {
    if (q % 4 == 3) {
      medium_ms += indexed.latencies[q] * 1e3;
      ++mediums;
    } else {
      needle_ms += indexed.latencies[q] * 1e3;
      ++needles;
    }
  }
  auto& registry = obs::MetricsRegistry::global();
  const std::uint64_t scored =
      registry.counter("retrieval.query.docs_scored").value();
  const std::uint64_t skipped =
      registry.counter("retrieval.query.blocks_skipped").value();
  const std::uint64_t decoded =
      registry.counter("retrieval.query.postings_decoded").value();
  std::printf(
      "indexed mean latency: needle %.3f ms (%zu), medium-df %.3f ms (%zu)\n",
      needle_ms / static_cast<double>(std::max<std::size_t>(needles, 1)),
      needles,
      medium_ms / static_cast<double>(std::max<std::size_t>(mediums, 1)),
      mediums);
  std::printf("wand counters: docs_scored=%llu blocks_skipped=%llu "
              "postings_decoded=%llu\n",
              static_cast<unsigned long long>(scored),
              static_cast<unsigned long long>(skipped),
              static_cast<unsigned long long>(decoded));
  return 0;
}
