#include <gtest/gtest.h>

#include "hpcgpt/eval/metrics.hpp"
#include "hpcgpt/retrieval/engine.hpp"
#include "hpcgpt/text/chunker.hpp"

namespace hpcgpt {
namespace {

using eval::Confusion;

// ---------------------------------------------------------------- eval

Confusion sample_confusion() {
  // ThreadSanitizer C/C++ row of Table 5: TP 69, FP 1, TN 89, FN 20,
  // 2 unsupported (177 total, TSR 0.9889).
  Confusion c;
  c.tp = 69;
  c.fp = 1;
  c.tn = 89;
  c.fn = 20;
  c.unsupported = 2;  // not in the paper row; exercised below separately
  return c;
}

TEST(Metrics, MatchPaperRowArithmetic) {
  Confusion c = sample_confusion();
  c.unsupported = 0;
  EXPECT_NEAR(c.recall(), 69.0 / 89.0, 1e-9);          // 0.7752...
  EXPECT_NEAR(c.specificity(), 89.0 / 90.0, 1e-9);     // 0.9888...
  EXPECT_NEAR(c.precision(), 69.0 / 70.0, 1e-9);       // 0.9857...
  EXPECT_NEAR(c.accuracy(), 158.0 / 179.0, 1e-9);      // 0.8826...
  EXPECT_NEAR(c.f1(), 2 * c.precision() * c.recall() /
                          (c.precision() + c.recall()),
              1e-12);
}

TEST(Metrics, TsrAndAdjustedF1) {
  Confusion c = sample_confusion();
  EXPECT_NEAR(c.tsr(), 179.0 / 181.0, 1e-9);
  EXPECT_NEAR(c.adjusted_f1(), c.f1() * c.tsr(), 1e-12);
  EXPECT_LT(c.adjusted_f1(), c.f1());
}

TEST(Metrics, EmptyDenominatorsAreZeroNotNan) {
  Confusion c;
  EXPECT_EQ(c.recall(), 0.0);
  EXPECT_EQ(c.specificity(), 0.0);
  EXPECT_EQ(c.precision(), 0.0);
  EXPECT_EQ(c.accuracy(), 0.0);
  EXPECT_EQ(c.f1(), 0.0);
  EXPECT_EQ(c.tsr(), 0.0);
}

TEST(Metrics, AddRoutesToCells) {
  Confusion c;
  c.add(true, true);    // TP
  c.add(true, false);   // FN
  c.add(false, true);   // FP
  c.add(false, false);  // TN
  c.add_unsupported();
  EXPECT_EQ(c.tp, 1u);
  EXPECT_EQ(c.fn, 1u);
  EXPECT_EQ(c.fp, 1u);
  EXPECT_EQ(c.tn, 1u);
  EXPECT_EQ(c.judged(), 4u);
  EXPECT_EQ(c.total(), 5u);
}

TEST(Metrics, Table5RendererMarksBestPerLanguage) {
  std::vector<eval::ToolRow> rows(2);
  rows[0].tool = "A";
  rows[0].language = "C/C++";
  rows[0].confusion.tp = 9;
  rows[0].confusion.fn = 1;
  rows[0].confusion.tn = 5;
  rows[0].confusion.fp = 5;
  rows[1].tool = "B";
  rows[1].language = "C/C++";
  rows[1].confusion.tp = 5;
  rows[1].confusion.fn = 5;
  rows[1].confusion.tn = 9;
  rows[1].confusion.fp = 1;
  const std::string table = render_table5(rows);
  EXPECT_NE(table.find("Tool"), std::string::npos);
  EXPECT_NE(table.find("Adjusted F1"), std::string::npos);
  // A has best recall 0.9 -> starred; B best specificity 0.9 -> starred.
  EXPECT_NE(table.find("0.9000*"), std::string::npos);
}

TEST(Metrics, GenericTablePadsColumns) {
  const std::string t = eval::render_table(
      {"Category", "Number"}, {{"Clone detection", "45"}, {"x", "7"}});
  // Every line has the same length.
  std::size_t expected = t.find('\n');
  std::size_t pos = 0;
  while (pos < t.size()) {
    const std::size_t next = t.find('\n', pos);
    EXPECT_EQ(next - pos, expected);
    pos = next + 1;
  }
}

TEST(Metrics, Fmt4) {
  EXPECT_EQ(eval::fmt4(0.86785), "0.8679");
  EXPECT_EQ(eval::fmt4(1.0), "1.0000");
}

// ------------------------------------------------------------ retrieval

std::vector<std::string> corpus() {
  return {
      "The system is dgxh100_n64 when the accelerator is NVIDIA "
      "H100-SXM5-80GB and the software stack is MXNet NVIDIA Release "
      "23.04.",
      "The CodeTrans dataset can be used for code translation tasks from "
      "Java to C#.",
      "A data race occurs when two threads write the same shared variable "
      "without synchronization.",
      "The reduction clause combines per-thread partial sums at the end "
      "of the parallel region.",
  };
}

retrieval::SearchEngine make_store() {
  retrieval::TfidfEmbedder emb;
  emb.fit(corpus());
  retrieval::SearchEngine store(emb);
  store.add_all(corpus());
  return store;
}

TEST(Retrieval, EmbedderVocabularyAndNorm) {
  retrieval::TfidfEmbedder emb;
  emb.fit(corpus());
  EXPECT_TRUE(emb.fitted());
  EXPECT_GT(emb.vocabulary_size(), 20u);
  const auto v = emb.embed(corpus()[0]);
  double norm = 0;
  for (const auto& [term, w] : v) norm += w * w;
  // Sparse vectors store float weights: unit norm holds to single
  // precision, not 1e-9.
  EXPECT_NEAR(norm, 1.0, 1e-6);
}

TEST(Retrieval, TopHitMatchesTopic) {
  const auto store = make_store();
  const auto hits = store.top_k("which system uses the H100 accelerator "
                                "with MXNet software?", 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_NE(hits[0].text.find("dgxh100_n64"), std::string::npos);
  EXPECT_GT(hits[0].score, hits[1].score);
}

TEST(Retrieval, UnknownWordsEmbedEmpty) {
  retrieval::TfidfEmbedder emb;
  emb.fit(corpus());
  EXPECT_TRUE(emb.embed("zzz qqq www").empty());
}

TEST(Retrieval, NewChunksSearchableWithoutRefit) {
  // The §5 "update HPC-GPT with latest data" property: a fact added after
  // construction is immediately retrievable.
  auto store = make_store();
  store.add("The system is gb200_n72 when the accelerator is NVIDIA "
            "GB200 and the software stack is PyTorch Release 24.10.");
  const auto hits = store.top_k("what system pairs with the GB200 "
                                "accelerator?", 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].text.find("gb200_n72"), std::string::npos);
}

TEST(Retrieval, TopKClampsToStoreSize) {
  const auto store = make_store();
  EXPECT_EQ(store.top_k("anything", 100).size(), store.size());
}

TEST(Retrieval, ChunkerFeedsStore) {
  std::string doc;
  for (int i = 0; i < 300; ++i) {
    doc += "filler" + std::to_string(i) + " ";
  }
  doc += "the magic system is called zeus_n5 with prometheus accelerators ";
  for (int i = 0; i < 300; ++i) {
    doc += "padding" + std::to_string(i) + " ";
  }
  const auto chunks = text::chunk_document(doc, {});
  retrieval::TfidfEmbedder emb;
  emb.fit(chunks);
  retrieval::SearchEngine store(emb);
  store.add_all(chunks);
  const auto hits = store.top_k("zeus prometheus system", 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_NE(hits[0].text.find("zeus_n5"), std::string::npos);
}

}  // namespace
}  // namespace hpcgpt
