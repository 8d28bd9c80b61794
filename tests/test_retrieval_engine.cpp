// Retrieval engine property tests: the indexed (WAND) query path must
// reproduce the brute-force scan ranking exactly — same doc order AND same
// scores — on randomized corpora whose common terms span several postings
// blocks, including tied scores, incremental adds, empty/out-of-vocabulary
// queries, k far beyond the corpus size and concurrent queries. Plus a
// model-based check of the append-only postings list and its iterator
// against a plain vector, and the RetrievalConfig name map. Labeled
// "retrieval" so the sanitize preset exercises the varint codec and
// iterator paths under ASan/UBSan, and "perf-smoke" so the TSan lane runs
// the concurrent-query case.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "hpcgpt/retrieval/engine.hpp"
#include "hpcgpt/retrieval/index.hpp"
#include "hpcgpt/support/rng.hpp"

namespace {

using namespace hpcgpt;
using retrieval::RetrievalConfig;

using Engine = RetrievalConfig::Engine;
using Weighting = RetrievalConfig::Weighting;

// Small word pool => heavy term overlap, frequent exact score ties.
std::vector<std::string> make_pool(std::size_t n) {
  std::vector<std::string> pool;
  pool.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string w = "w";
    w += static_cast<char>('a' + i / 26);
    w += static_cast<char>('a' + i % 26);
    pool.push_back(std::move(w));
  }
  return pool;
}

std::string random_doc(Rng& rng, const std::vector<std::string>& pool,
                       std::size_t min_words, std::size_t max_words) {
  const std::size_t len =
      min_words + rng.next_below(max_words - min_words + 1);
  std::string doc;
  for (std::size_t i = 0; i < len; ++i) {
    if (!doc.empty()) doc += ' ';
    doc += pool[rng.next_below(pool.size())];
  }
  return doc;
}

RetrievalConfig config_with(Weighting weighting) {
  RetrievalConfig cfg;
  cfg.weighting = weighting;
  return cfg;
}

void expect_same_hits(const std::vector<retrieval::Hit>& want,
                      const std::vector<retrieval::Hit>& got,
                      const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].index, got[i].index) << what << " rank " << i;
    // Bitwise equality is the design contract: both paths accumulate the
    // same dequantized impacts in the same (ascending term id) order.
    EXPECT_EQ(want[i].score, got[i].score) << what << " rank " << i;
    EXPECT_EQ(want[i].text, got[i].text) << what << " rank " << i;
  }
}

// ---- scan == indexed equivalence --------------------------------------

TEST(RetrievalEquivalence, IndexedAndHybridMatchScanOnRandomCorpora) {
  const std::vector<std::string> pool = make_pool(24);
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    for (const Weighting weighting : {Weighting::Tfidf, Weighting::Bm25}) {
      Rng rng(0x5eed1000 + seed);
      // 24 words over 300-799 docs of 1-12 words: each word is in about
      // a quarter of the docs, so its postings span two to four blocks.
      const std::size_t n_docs = 300 + rng.next_below(500);
      std::vector<std::string> corpus;
      for (std::size_t d = 0; d < n_docs; ++d) {
        corpus.push_back(random_doc(rng, pool, 1, 12));
      }
      retrieval::TfidfEmbedder embedder;
      embedder.fit(corpus);
      retrieval::SearchEngine engine(embedder, config_with(weighting));
      engine.add_all(corpus);

      for (int q = 0; q < 8; ++q) {
        std::string query = random_doc(rng, pool, 1, 4);
        if (q == 6) query += " zzzoutofvocab";
        if (q == 7) query = "";
        for (const std::size_t k :
             {std::size_t{1}, std::size_t{3}, std::size_t{10}, n_docs + 10}) {
          const std::string what = "seed=" + std::to_string(seed) +
                                   " weighting=" + std::to_string(int(weighting)) +
                                   " q=\"" + query + "\" k=" + std::to_string(k);
          const auto scan = engine.top_k_with(query, k, Engine::Scan);
          expect_same_hits(scan, engine.top_k_with(query, k, Engine::Indexed),
                           what + " [indexed]");
        }
      }
    }
  }
}

TEST(RetrievalEquivalence, TiedScoresBreakByAscendingIndexOnBothPaths) {
  // Duplicate documents guarantee exact score ties.
  const std::vector<std::string> corpus = {
      "mpi race detection", "openmp pragma",    "mpi race detection",
      "cuda kernel launch", "mpi race detection", "openmp pragma"};
  retrieval::TfidfEmbedder embedder;
  embedder.fit(corpus);
  retrieval::SearchEngine engine(embedder, config_with(Weighting::Tfidf));
  engine.add_all(corpus);

  const auto scan = engine.top_k_with("mpi race detection", 6, Engine::Scan);
  ASSERT_EQ(scan.size(), 6u);
  // Ties resolve to ascending index: the three duplicates come first, in
  // insertion order.
  EXPECT_EQ(scan[0].index, 0u);
  EXPECT_EQ(scan[1].index, 2u);
  EXPECT_EQ(scan[2].index, 4u);
  EXPECT_EQ(scan[0].score, scan[2].score);
  expect_same_hits(scan, engine.top_k_with("mpi race detection", 6,
                                           Engine::Indexed),
                   "tied [indexed]");
}

TEST(RetrievalEquivalence, IncrementalAddsStayImmediatelySearchable) {
  const std::vector<std::string> pool = make_pool(16);
  Rng rng(0xadd5);
  std::vector<std::string> corpus;
  for (std::size_t d = 0; d < 600; ++d) {
    corpus.push_back(random_doc(rng, pool, 2, 8));
  }
  retrieval::TfidfEmbedder embedder;
  embedder.fit(corpus);
  retrieval::SearchEngine engine(embedder, config_with(Weighting::Tfidf));

  // Add one document at a time; after every add the indexed path must see
  // the new document and still match the scan exactly.
  for (std::size_t d = 0; d < corpus.size(); ++d) {
    engine.add(corpus[d]);
    const std::string query = corpus[d];  // the fresh doc must surface
    const auto scan = engine.top_k_with(query, 5, Engine::Scan);
    const auto indexed = engine.top_k_with(query, 5, Engine::Indexed);
    expect_same_hits(scan, indexed, "after add " + std::to_string(d));
    ASSERT_FALSE(indexed.empty());
    EXPECT_GT(indexed[0].score, 0.0);
  }

  const retrieval::InvertedIndex::Stats& stats = engine.stats();
  EXPECT_EQ(stats.docs, corpus.size());
  EXPECT_GT(stats.compressed_bytes, 0u);
  ASSERT_GT(stats.distinct_terms, 0u);
  EXPECT_LE(stats.distinct_terms, pool.size());
  // The adds crossed block boundaries: the average list spans more than
  // two 64-posting blocks.
  EXPECT_GT(stats.postings,
            2 * retrieval::kPostingBlock * stats.distinct_terms);
}

TEST(RetrievalEquivalence, EmptyAndOovQueriesMatchScanShape) {
  const std::vector<std::string> corpus = {"alpha beta", "gamma delta",
                                           "epsilon zeta"};
  retrieval::TfidfEmbedder embedder;
  embedder.fit(corpus);
  retrieval::SearchEngine engine(embedder, config_with(Weighting::Bm25));
  engine.add_all(corpus);

  for (const char* query : {"", "qqq zzz totallyunknown"}) {
    const auto scan = engine.top_k_with(query, 2, Engine::Scan);
    ASSERT_EQ(scan.size(), 2u);
    // No term matches: the scan ranks all-zero scores by ascending index.
    EXPECT_EQ(scan[0].index, 0u);
    EXPECT_EQ(scan[0].score, 0.0);
    EXPECT_EQ(scan[1].index, 1u);
    expect_same_hits(scan, engine.top_k_with(query, 2, Engine::Indexed),
                     std::string("oov [indexed] q=") + query);
  }
  // A matching query with k beyond the corpus: the scan clamps to the
  // corpus size and WAND must too. k comes from outside (--rag-top-k,
  // RagConfig::top_k), so WAND must not size anything from it.
  for (const std::size_t k : {engine.size() + 1, std::size_t{1} << 40,
                              std::numeric_limits<std::size_t>::max()}) {
    const auto scan = engine.top_k_with("gamma", k, Engine::Scan);
    ASSERT_EQ(scan.size(), engine.size());
    EXPECT_EQ(scan[0].index, 1u);
    EXPECT_GT(scan[0].score, 0.0);
    expect_same_hits(scan, engine.top_k_with("gamma", k, Engine::Indexed),
                     "oversized k=" + std::to_string(k));
  }
}

TEST(RetrievalEquivalence, ConcurrentQueriesMatchSequentialHits) {
  // top_k is const and documented safe to call concurrently: the served
  // RAG pre-stage calls it on every submitting thread.
  const std::vector<std::string> pool = make_pool(24);
  Rng rng(0xc0c0);
  std::vector<std::string> corpus;
  for (std::size_t d = 0; d < 500; ++d) {
    corpus.push_back(random_doc(rng, pool, 1, 12));
  }
  retrieval::TfidfEmbedder embedder;
  embedder.fit(corpus);
  retrieval::SearchEngine engine(embedder, config_with(Weighting::Bm25));
  engine.add_all(corpus);

  std::vector<std::string> queries;
  for (std::size_t q = 0; q < 24; ++q) {
    queries.push_back(random_doc(rng, pool, 1, 4));
  }
  queries.push_back("zzzoutofvocab");
  queries.push_back("");
  std::vector<std::vector<retrieval::Hit>> sequential;
  for (const std::string& q : queries) sequential.push_back(engine.top_k(q, 5));

  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 8;
  std::atomic<std::size_t> ready{0};
  std::vector<std::vector<std::vector<retrieval::Hit>>> got(kThreads);
  std::vector<std::string> errors(kThreads);
  {
    std::vector<std::jthread> threads;  // joined at the end of this scope
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        // Each thread walks the queries from its own offset, so different
        // queries overlap in time.
        try {
          for (std::size_t i = 0; i < kRounds * queries.size(); ++i) {
            const std::size_t q = (i + t * 7) % queries.size();
            got[t].push_back(engine.top_k(queries[q], 5));
          }
        } catch (const std::exception& e) {
          errors[t] = e.what();
        }
      });
    }
  }

  for (std::size_t t = 0; t < kThreads; ++t) {
    ASSERT_EQ(errors[t], "") << "thread " << t;
    ASSERT_EQ(got[t].size(), kRounds * queries.size());
    for (std::size_t i = 0; i < got[t].size(); ++i) {
      const std::size_t q = (i + t * 7) % queries.size();
      expect_same_hits(sequential[q], got[t][i],
                       "thread " + std::to_string(t) + " q=\"" +
                           queries[q] + "\"");
    }
  }
}

// ---- postings list and iterator -----------------------------------------

using retrieval::kPostingBlock;

/// `n` postings with random gaps of 1..2^14 (multi-byte varints) from a
/// random first doc, and random impacts.
std::vector<retrieval::Posting> random_postings(Rng& rng, std::size_t n) {
  std::vector<retrieval::Posting> out;
  retrieval::DocId doc = static_cast<retrieval::DocId>(rng.next_below(3));
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      doc += 1 + static_cast<retrieval::DocId>(rng.next_below(1 << 14));
    }
    out.push_back({doc, static_cast<std::uint8_t>(rng.next_below(256))});
  }
  return out;
}

/// Last index + 1 of the 64-posting block `b` of a list of `n` postings.
std::size_t block_end(std::size_t b, std::size_t n) {
  return std::min((b + 1) * kPostingBlock, n);
}

/// Max impact of block `b` of the first `len` postings of `v`.
std::uint8_t block_max(const std::vector<retrieval::Posting>& v,
                       std::size_t b, std::size_t len) {
  std::uint8_t m = 0;
  for (std::size_t i = b * kPostingBlock; i < block_end(b, len); ++i) {
    m = std::max(m, v[i].impact);
  }
  return m;
}

const std::size_t kListSizes[] = {0, 1, 63, 64, 65, 128, 129, 1000};

TEST(PostingList, EveryAppendedPrefixDecodes) {
  Rng rng(0xc0dec);
  for (const std::size_t n : kListSizes) {
    const std::vector<retrieval::Posting> want = random_postings(rng, n);
    retrieval::PostingList list;
    for (std::size_t len = 1; len <= n; ++len) {
      list.append(want[len - 1]);
      const std::string what =
          "n=" + std::to_string(n) + " len=" + std::to_string(len);
      ASSERT_EQ(list.count(), len) << what;
      const auto& skips = list.skips();
      ASSERT_EQ(skips.size(), (len + kPostingBlock - 1) / kPostingBlock)
          << what;
      std::uint8_t max_impact = 0;
      std::vector<retrieval::Posting> buf(kPostingBlock);
      for (std::size_t b = 0; b < skips.size(); ++b) {
        const std::size_t first = b * kPostingBlock;
        const std::size_t end = block_end(b, len);
        ASSERT_EQ(list.decode_block(b, buf.data()), end - first) << what;
        ASSERT_EQ(skips[b].count, end - first) << what;
        for (std::size_t i = first; i < end; ++i) {
          ASSERT_EQ(buf[i - first].doc, want[i].doc) << what << " i=" << i;
          ASSERT_EQ(buf[i - first].impact, want[i].impact)
              << what << " i=" << i;
          max_impact = std::max(max_impact, want[i].impact);
        }
        EXPECT_EQ(skips[b].last_doc, want[end - 1].doc) << what;
        EXPECT_EQ(skips[b].max_impact, block_max(want, b, len)) << what;
      }
      EXPECT_EQ(list.max_impact(), max_impact) << what;
    }
  }
}

/// The iterator's expected state, kept on the plain vector: position,
/// current block and the counters it should report.
struct IteratorModel {
  const std::vector<retrieval::Posting>& v;
  std::size_t pos = 0;
  std::size_t block = 0;
  std::uint64_t skipped = 0;
  std::uint64_t decoded = 0;

  explicit IteratorModel(const std::vector<retrieval::Posting>& postings)
      : v(postings) {
    decoded = block_end(0, v.size());
  }
  std::size_t blocks() const {
    return (v.size() + kPostingBlock - 1) / kPostingBlock;
  }
  void enter(std::size_t b) {
    skipped += b - block - 1;
    block = b;
    decoded += block_end(b, v.size()) - b * kPostingBlock;
  }
  void next() {
    if (pos == v.size()) return;
    if (++pos < v.size() && pos / kPostingBlock != block) {
      enter(pos / kPostingBlock);
    }
  }
  void advance(retrieval::DocId target) {
    if (pos == v.size() || v[pos].doc >= target) return;
    pos = static_cast<std::size_t>(
        std::lower_bound(v.begin() + static_cast<std::ptrdiff_t>(pos), v.end(),
                         target,
                         [](const retrieval::Posting& p, retrieval::DocId t) {
                           return p.doc < t;
                         }) -
        v.begin());
    if (pos == v.size()) {
      skipped += blocks() - block - 1;
    } else if (pos / kPostingBlock != block) {
      enter(pos / kPostingBlock);
    }
  }
};

void expect_iterator_matches(const retrieval::PostingIterator& it,
                             const IteratorModel& m, const std::string& what) {
  ASSERT_EQ(it.at_end(), m.pos == m.v.size()) << what;
  EXPECT_EQ(it.blocks_skipped(), m.skipped) << what;
  EXPECT_EQ(it.postings_decoded(), m.decoded) << what;
  if (it.at_end()) return;
  EXPECT_EQ(it.doc(), m.v[m.pos].doc) << what;
  EXPECT_EQ(it.impact(), m.v[m.pos].impact) << what;
  EXPECT_EQ(it.block_last_doc(), m.v[block_end(m.block, m.v.size()) - 1].doc)
      << what;
  EXPECT_EQ(it.block_max_impact(), block_max(m.v, m.block, m.v.size()))
      << what;
}

TEST(PostingIterators, RandomNextAndAdvanceLandWhereLowerBoundLands) {
  Rng rng(0x17e2);
  std::uint64_t far_jump_skips = 0;
  for (const std::size_t n : kListSizes) {
    const std::vector<retrieval::Posting> v = random_postings(rng, n);
    retrieval::PostingList list;
    for (const retrieval::Posting& p : v) list.append(p);
    for (int run = 0; run < 50; ++run) {
      retrieval::PostingIterator it(&list);
      IteratorModel model(v);
      EXPECT_EQ(it.max_impact(), list.max_impact());
      expect_iterator_matches(it, model, "start");
      for (int op = 0; !it.at_end(); ++op) {
        const std::string what = "n=" + std::to_string(n) + " run=" +
                                 std::to_string(run) + " op=" +
                                 std::to_string(op);
        const retrieval::DocId doc = it.doc();
        switch (rng.next_below(4)) {
          case 0:
            it.next();
            model.next();
            break;
          case 1: {  // near: within a few postings' gaps, or behind
            const auto target = static_cast<retrieval::DocId>(
                std::max<std::int64_t>(
                    0, std::int64_t{doc} +
                           static_cast<std::int64_t>(rng.next_below(1 << 15)) -
                           (1 << 13)));
            it.advance(target);
            model.advance(target);
            break;
          }
          case 2: {  // far: about a block on average, up to two
            const auto target = static_cast<retrieval::DocId>(
                doc + rng.next_below(kPostingBlock << 15));
            const std::uint64_t before = it.blocks_skipped();
            it.advance(target);
            model.advance(target);
            far_jump_skips += it.blocks_skipped() - before;
            break;
          }
          default: {  // exactly onto a stored doc, ahead or behind
            const std::size_t i = std::min<std::size_t>(
                n - 1, model.pos + rng.next_below(3 * kPostingBlock) -
                           std::min<std::size_t>(model.pos, kPostingBlock));
            it.advance(v[i].doc);
            model.advance(v[i].doc);
            break;
          }
        }
        expect_iterator_matches(it, model, what);
      }
    }
  }
  EXPECT_GT(far_jump_skips, 0u);
}

TEST(PostingIterators, AdvanceSkipsBlocksAndLandsOnFirstDocAtLeastTarget) {
  // Term 7 in every third doc: postings 0, 3, ..., 1197 (400 postings,
  // seven blocks; block b ends at doc 192b + 189).
  retrieval::InvertedIndex index;
  for (retrieval::DocId d = 0; d < 1200; ++d) {
    std::vector<std::pair<retrieval::TermId, std::uint8_t>> terms;
    if (d % 3 == 0) {
      terms.push_back({7u, static_cast<std::uint8_t>(1 + d % 200)});
    }
    index.add_document(d, terms);
  }
  EXPECT_EQ(index.stats().docs, 1200u);
  EXPECT_EQ(index.stats().postings, 400u);
  EXPECT_EQ(index.stats().distinct_terms, 1u);

  retrieval::PostingIterator it = index.iterator(7);
  ASSERT_FALSE(it.at_end());
  EXPECT_EQ(it.doc(), 0u);
  EXPECT_EQ(it.block_last_doc(), 189u);
  it.advance(1000);  // far jump: decodes block 5, skips blocks 1-4
  EXPECT_EQ(it.doc(), 1002u);
  EXPECT_EQ(it.blocks_skipped(), 4u);
  EXPECT_EQ(it.postings_decoded(), 2 * kPostingBlock);
  it.advance(1002);  // advance to current doc is a no-op
  EXPECT_EQ(it.doc(), 1002u);
  it.next();
  EXPECT_EQ(it.doc(), 1005u);
  it.advance(9999);
  EXPECT_TRUE(it.at_end());
  EXPECT_EQ(it.blocks_skipped(), 5u);  // block 6 was never decoded

  // Unknown term: immediately exhausted.
  EXPECT_TRUE(index.iterator(9999).at_end());
  EXPECT_TRUE(index.iterator(6).at_end());
}

// ---- config -----------------------------------------------------------

TEST(RetrievalConfigNames, RoundTripAndValidation) {
  using retrieval::engine_by_name;
  using retrieval::engine_name;

  for (const Engine e : {Engine::Scan, Engine::Indexed}) {
    EXPECT_EQ(engine_by_name(engine_name(e)), e);
  }
  EXPECT_THROW(engine_by_name("linear"), std::invalid_argument);
  EXPECT_THROW(engine_by_name("hybrid"), std::invalid_argument);

  RetrievalConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.bm25_k1 = 0.0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.bm25_b = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
