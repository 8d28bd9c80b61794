// Retrieval engine property tests: the indexed (WAND) query path must
// reproduce the brute-force scan ranking exactly — same doc order AND same
// scores — on randomized corpora, including tied scores, incremental adds,
// sealing/merging segment boundaries, empty/out-of-vocabulary queries and
// k far beyond the corpus size. Plus unit coverage for the posting
// iterators and the RetrievalConfig name maps. Labeled "retrieval" so the
// sanitize preset exercises the varint codec and iterator paths under
// ASan/UBSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <string>
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

// Engine with aggressive segment churn (tiny blocks, frequent seals and
// merges) so the equivalence tests cross every storage boundary.
RetrievalConfig churny_config(Weighting weighting) {
  RetrievalConfig cfg;
  cfg.weighting = weighting;
  cfg.index.block_size = 4;
  cfg.index.seal_threshold = 16;
  cfg.index.merge_fanin = 3;
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
      const std::size_t n_docs = 20 + rng.next_below(100);
      std::vector<std::string> corpus;
      for (std::size_t d = 0; d < n_docs; ++d) {
        corpus.push_back(random_doc(rng, pool, 1, 12));
      }
      retrieval::TfidfEmbedder embedder;
      embedder.fit(corpus);
      retrieval::SearchEngine engine(embedder, churny_config(weighting));
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
  retrieval::SearchEngine engine(embedder, churny_config(Weighting::Tfidf));
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
  for (std::size_t d = 0; d < 80; ++d) {
    corpus.push_back(random_doc(rng, pool, 2, 8));
  }
  retrieval::TfidfEmbedder embedder;
  embedder.fit(corpus);
  retrieval::SearchEngine engine(embedder, churny_config(Weighting::Tfidf));

  // Add one document at a time; after every add the indexed path must see
  // the new document (tail segment) and still match the scan exactly.
  for (std::size_t d = 0; d < corpus.size(); ++d) {
    engine.add(corpus[d]);
    const std::string query = corpus[d];  // the fresh doc must surface
    const auto scan = engine.top_k_with(query, 5, Engine::Scan);
    const auto indexed = engine.top_k_with(query, 5, Engine::Indexed);
    expect_same_hits(scan, indexed, "after add " + std::to_string(d));
    ASSERT_FALSE(indexed.empty());
    EXPECT_GT(indexed[0].score, 0.0);
  }

  // 80 docs through seal_threshold=16 / merge_fanin=3 must have sealed
  // and merged along the way.
  const retrieval::IndexStats stats = engine.stats();
  EXPECT_EQ(stats.documents, corpus.size());
  EXPECT_GT(stats.sealed_segments, 0u);
  EXPECT_GT(stats.postings, 0u);
  EXPECT_GT(stats.compressed_bytes, 0u);
  EXPECT_GT(stats.distinct_terms, 0u);
}

TEST(RetrievalEquivalence, EmptyAndOovQueriesMatchScanShape) {
  const std::vector<std::string> corpus = {"alpha beta", "gamma delta",
                                           "epsilon zeta"};
  retrieval::TfidfEmbedder embedder;
  embedder.fit(corpus);
  retrieval::SearchEngine engine(embedder, churny_config(Weighting::Bm25));
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

// ---- posting iterators ------------------------------------------------

retrieval::InvertedIndex build_index(
    const std::vector<std::vector<std::pair<retrieval::TermId, std::uint8_t>>>&
        docs,
    retrieval::IndexOptions opts) {
  retrieval::InvertedIndex index(opts);
  for (std::size_t d = 0; d < docs.size(); ++d) {
    index.add_document(static_cast<retrieval::DocId>(d), docs[d]);
  }
  return index;
}

TEST(PostingIterators, AdvanceSkipsBlocksAndLandsOnFirstDocAtLeastTarget) {
  // Term 7 in every third doc: postings 0, 3, 6, ..., 297.
  std::vector<std::vector<std::pair<retrieval::TermId, std::uint8_t>>> docs(
      300);
  for (std::size_t d = 0; d < docs.size(); d += 3) {
    docs[d] = {{7u, static_cast<std::uint8_t>(1 + d % 200)}};
  }
  retrieval::IndexOptions opts;
  opts.block_size = 4;
  opts.seal_threshold = 1 << 20;  // manual seal below
  auto index = build_index(docs, opts);
  index.seal_tail();

  retrieval::PostingIterator it = index.iterator(7);
  ASSERT_FALSE(it.at_end());
  EXPECT_EQ(it.doc(), 0u);
  it.advance(250);  // far jump: must skip whole blocks
  EXPECT_EQ(it.doc(), 252u);
  EXPECT_GT(it.blocks_skipped(), 0u);
  it.advance(252);  // advance to current doc is a no-op
  EXPECT_EQ(it.doc(), 252u);
  it.next();
  EXPECT_EQ(it.doc(), 255u);
  it.advance(9999);
  EXPECT_TRUE(it.at_end());

  // Unknown term: immediately exhausted.
  EXPECT_TRUE(index.iterator(9999).at_end());
}

TEST(PostingIterators, UnionAndIntersectionMatchNaiveSetOps) {
  Rng rng(0x5e7);
  const std::size_t n_docs = 400;
  std::vector<std::set<retrieval::DocId>> term_docs(3);
  std::vector<std::vector<std::pair<retrieval::TermId, std::uint8_t>>> docs(
      n_docs);
  for (std::size_t d = 0; d < n_docs; ++d) {
    for (retrieval::TermId t = 0; t < 3; ++t) {
      if (rng.next_below(10) < 3) {
        docs[d].emplace_back(t, std::uint8_t{1});
        term_docs[t].insert(static_cast<retrieval::DocId>(d));
      }
    }
  }
  retrieval::IndexOptions opts;
  opts.block_size = 8;
  opts.seal_threshold = 128;  // mix sealed segments and tail
  auto index = build_index(docs, opts);

  std::set<retrieval::DocId> want_union;
  std::set<retrieval::DocId> want_isect;
  for (retrieval::DocId d = 0; d < n_docs; ++d) {
    bool any = false;
    bool all = true;
    for (retrieval::TermId t = 0; t < 3; ++t) {
      const bool has = term_docs[t].count(d) > 0;
      any = any || has;
      all = all && has;
    }
    if (any) want_union.insert(d);
    if (all) want_isect.insert(d);
  }

  auto children = [&] {
    std::vector<retrieval::PostingIterator> its;
    for (retrieval::TermId t = 0; t < 3; ++t) its.push_back(index.iterator(t));
    return its;
  };
  std::vector<retrieval::DocId> got_union;
  for (retrieval::UnionIterator u(children()); !u.at_end(); u.next()) {
    got_union.push_back(u.doc());
    EXPECT_GT(u.impact_sum(), 0u);
  }
  EXPECT_EQ(got_union,
            std::vector<retrieval::DocId>(want_union.begin(), want_union.end()));

  std::vector<retrieval::DocId> got_isect;
  for (retrieval::IntersectionIterator a(children()); !a.at_end(); a.next()) {
    got_isect.push_back(a.doc());
  }
  EXPECT_EQ(got_isect,
            std::vector<retrieval::DocId>(want_isect.begin(), want_isect.end()));
}

TEST(PostingIterators, CompressedRoundTripAcrossBlockSizes) {
  Rng rng(0xc0dec);
  std::vector<retrieval::Posting> postings;
  retrieval::DocId doc = 0;
  for (int i = 0; i < 1000; ++i) {
    doc += 1 + static_cast<retrieval::DocId>(rng.next_below(1 << 14));
    postings.push_back(
        {doc, static_cast<std::uint8_t>(1 + rng.next_below(255))});
  }
  for (const std::size_t block_size : {1u, 3u, 64u, 2048u}) {
    const auto list = retrieval::CompressedPostings::encode(
        postings, block_size);
    EXPECT_EQ(list.count(), postings.size());
    std::vector<retrieval::Posting> decoded;
    std::vector<retrieval::Posting> buf(block_size);
    for (std::size_t b = 0; b < list.skips().size(); ++b) {
      const std::size_t n = list.decode_block(b, buf.data());
      ASSERT_EQ(n, list.skips()[b].count);
      decoded.insert(decoded.end(), buf.begin(), buf.begin() + n);
    }
    ASSERT_EQ(decoded.size(), postings.size());
    for (std::size_t i = 0; i < postings.size(); ++i) {
      EXPECT_EQ(decoded[i].doc, postings[i].doc);
      EXPECT_EQ(decoded[i].impact, postings[i].impact);
    }
  }
}

// ---- config -----------------------------------------------------------

TEST(RetrievalConfigNames, RoundTripAndValidation) {
  using retrieval::engine_by_name;
  using retrieval::engine_name;
  using retrieval::weighting_by_name;
  using retrieval::weighting_name;

  for (const Engine e : {Engine::Scan, Engine::Indexed}) {
    EXPECT_EQ(engine_by_name(engine_name(e)), e);
  }
  for (const Weighting w : {Weighting::Tfidf, Weighting::Bm25}) {
    EXPECT_EQ(weighting_by_name(weighting_name(w)), w);
  }
  EXPECT_THROW(engine_by_name("linear"), std::invalid_argument);
  EXPECT_THROW(engine_by_name("hybrid"), std::invalid_argument);
  EXPECT_THROW(weighting_by_name("tf"), std::invalid_argument);

  RetrievalConfig cfg;
  EXPECT_NO_THROW(cfg.validate());
  cfg.index.merge_fanin = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = {};
  cfg.bm25_b = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

}  // namespace
