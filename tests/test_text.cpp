#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/datagen/pipeline.hpp"
#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/kb/kb.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/support/strings.hpp"
#include "hpcgpt/text/chunker.hpp"
#include "hpcgpt/text/similarity.hpp"
#include "hpcgpt/text/tokenizer.hpp"

namespace hpcgpt::text {
namespace {

// ---------------------------------------------------------------- BPE

std::vector<std::string> tiny_corpus() {
  return {
      "#pragma omp parallel for",
      "#pragma omp parallel for reduction(+:sum)",
      "for (int i = 0; i < n; i++) a[i] = b[i] + c[i];",
      "the data race occurs when two threads write the same variable",
      "the data race detection tool reports a data race",
  };
}

TEST(BpeTokenizer, UntrainedEncodesBytes) {
  BpeTokenizer tok;
  const auto ids = tok.encode("abc");
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_EQ(ids[0], 'a');
  EXPECT_EQ(ids[2], 'c');
  EXPECT_EQ(tok.vocab_size(), static_cast<std::size_t>(BpeTokenizer::kFirstMerge));
}

TEST(BpeTokenizer, RoundTripLossless) {
  BpeTokenizer tok;
  tok.train(tiny_corpus(), 400);
  for (const std::string& doc : tiny_corpus()) {
    EXPECT_EQ(tok.decode(tok.encode(doc)), doc);
  }
  // Arbitrary bytes (including non-ASCII) survive too.
  const std::string binary = "\x01\xff\x80 mixed \t text";
  EXPECT_EQ(tok.decode(tok.encode(binary)), binary);
}

TEST(BpeTokenizer, TrainingCompresses) {
  BpeTokenizer trained;
  trained.train(tiny_corpus(), 450);
  BpeTokenizer raw;
  const std::string doc = "the data race detection tool";
  EXPECT_LT(trained.encode(doc).size(), raw.encode(doc).size());
}

TEST(BpeTokenizer, VocabSizeIsBounded) {
  BpeTokenizer tok;
  tok.train(tiny_corpus(), 300);
  EXPECT_LE(tok.vocab_size(), 300u);
  EXPECT_GT(tok.merge_count(), 0u);
}

TEST(BpeTokenizer, MinPairCountStopsEarly) {
  BpeTokenizer tok;
  tok.train({"ab"}, 10000, /*min_pair_count=*/2);
  // "ab" appears once, so the single candidate pair is below threshold.
  EXPECT_EQ(tok.merge_count(), 0u);
}

TEST(BpeTokenizer, DeterministicTraining) {
  BpeTokenizer a;
  BpeTokenizer b;
  a.train(tiny_corpus(), 350);
  b.train(tiny_corpus(), 350);
  EXPECT_EQ(a.save(), b.save());
}

TEST(BpeTokenizer, SaveLoadRoundTrip) {
  BpeTokenizer tok;
  tok.train(tiny_corpus(), 380);
  const BpeTokenizer loaded = BpeTokenizer::load(tok.save());
  EXPECT_EQ(loaded.merge_count(), tok.merge_count());
  const std::string doc = "#pragma omp parallel for";
  EXPECT_EQ(loaded.encode(doc), tok.encode(doc));
}

TEST(BpeTokenizer, LoadRejectsBadMagic) {
  EXPECT_THROW(BpeTokenizer::load("nope 0\n"), ParseError);
  EXPECT_THROW(BpeTokenizer::load("bpe-v1 3\n1 2\n"), ParseError);
}

TEST(BpeTokenizer, SpecialTokensDecodeEmpty) {
  BpeTokenizer tok;
  EXPECT_EQ(tok.decode({BpeTokenizer::kBos, 'h', 'i', BpeTokenizer::kEos}),
            "hi");
}

TEST(BpeTokenizer, TrainRejectsTinyVocab) {
  BpeTokenizer tok;
  EXPECT_THROW(tok.train(tiny_corpus(), 10), InvalidArgument);
}

TEST(BpeTokenizer, LoadRejectsUndefinedMergeParts) {
  // A merge that names itself: decode would expand it forever.
  EXPECT_THROW(BpeTokenizer::load("bpe-v1 1\n260 97\n"), ParseError);
  // A later merge, a special token, and a negative id.
  EXPECT_THROW(BpeTokenizer::load("bpe-v1 2\n97 261\n97 98\n"), ParseError);
  EXPECT_THROW(BpeTokenizer::load("bpe-v1 1\n256 97\n"), ParseError);
  EXPECT_THROW(BpeTokenizer::load("bpe-v1 1\n97 -1\n"), ParseError);
  // Bytes and earlier merges are what train() produces.
  const BpeTokenizer tok = BpeTokenizer::load("bpe-v1 2\n97 98\n260 260\n");
  EXPECT_EQ(tok.decode({261}), "abab");
}

TEST(BpeTokenizer, LoadRejectsOversizedCount) {
  EXPECT_THROW(BpeTokenizer::load("bpe-v1 4000000000000000000\n97 97\n"),
               ParseError);
  EXPECT_THROW(BpeTokenizer::load("bpe-v1 99999999999999999999999\n"),
               ParseError);
}

TEST(BpeTokenizer, DecodeHandlesDeepMergeChains) {
  // Merge k joins merge k-1 with one more 'a': a chain as deep as the
  // table is long, which a recursive expansion would overflow the stack on.
  constexpr std::size_t kDepth = 50000;
  std::string table = "bpe-v1 " + std::to_string(kDepth) + "\n97 97\n";
  for (std::size_t k = 1; k < kDepth; ++k) {
    table += std::to_string(BpeTokenizer::kFirstMerge + k - 1) + " 97\n";
  }
  const BpeTokenizer tok = BpeTokenizer::load(table);
  const auto last = static_cast<TokenId>(BpeTokenizer::kFirstMerge + kDepth - 1);
  EXPECT_EQ(tok.decode({last}), std::string(kDepth + 1, 'a'));
  EXPECT_THROW(tok.decode({last + 1}), InvalidArgument);
}

// ---------------------------------------------------------------- BPE oracle

// The original encoder: rescan every adjacent pair for the earliest-learned
// merge, apply it at its leftmost occurrence, repeat. O(n^2), and the
// definition of the canonical segmentation that encode() must reproduce.
class RescanEncoder {
 public:
  explicit RescanEncoder(const BpeTokenizer& tok) {
    std::istringstream in(tok.save());
    std::string magic;
    std::size_t count = 0;
    in >> magic >> count;
    for (std::size_t i = 0; i < count; ++i) {
      TokenId left = 0;
      TokenId right = 0;
      in >> left >> right;
      index_[key(left, right)] =
          static_cast<TokenId>(BpeTokenizer::kFirstMerge + i);
    }
  }

  std::vector<TokenId> encode(std::string_view text) const {
    std::vector<TokenId> ids;
    for (const char c : text) {
      ids.push_back(static_cast<TokenId>(static_cast<unsigned char>(c)));
    }
    for (;;) {
      TokenId best_rank = std::numeric_limits<TokenId>::max();
      std::size_t best_pos = ids.size();
      for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
        const auto it = index_.find(key(ids[i], ids[i + 1]));
        if (it != index_.end() && it->second < best_rank) {
          best_rank = it->second;
          best_pos = i;
        }
      }
      if (best_pos == ids.size()) break;
      ids[best_pos] = best_rank;
      ids.erase(ids.begin() + static_cast<std::ptrdiff_t>(best_pos) + 1);
    }
    return ids;
  }

 private:
  static std::uint64_t key(TokenId left, TokenId right) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(left)) << 32 |
           static_cast<std::uint32_t>(right);
  }

  std::unordered_map<std::uint64_t, TokenId> index_;
};

const BpeTokenizer& shared_tokenizer() {
  static const BpeTokenizer tok = core::build_shared_tokenizer();
  return tok;
}

void expect_same_segmentation(const BpeTokenizer& tok,
                              const RescanEncoder& reference,
                              const std::vector<std::string>& inputs) {
  for (const std::string& text : inputs) {
    ASSERT_EQ(tok.encode(text), reference.encode(text)) << text;
  }
}

TEST(BpeOracle, LeftmostOccurrenceWinsTies) {
  const BpeTokenizer tok = BpeTokenizer::load("bpe-v1 1\n97 97\n");
  EXPECT_EQ(tok.encode("aaa"), (std::vector<TokenId>{260, 97}));
  EXPECT_EQ(tok.encode("aaaa"), (std::vector<TokenId>{260, 260}));
}

TEST(BpeOracle, MatchesRescanOnKnowledgeBaseAndInstructionData) {
  const RescanEncoder reference(shared_tokenizer());
  expect_same_segmentation(shared_tokenizer(), reference,
                           kb::unstructured_corpus());
  // Every 8th record keeps the quadratic reference affordable.
  const datagen::InstructionDataset data = datagen::collect_all();
  std::vector<std::string> records;
  for (std::size_t i = 0; i < data.records.size(); i += 8) {
    records.push_back(data.records[i].instruction);
    records.push_back(data.records[i].output);
  }
  expect_same_segmentation(shared_tokenizer(), reference, records);
}

TEST(BpeOracle, MatchesRescanOnDrbSourcesAndRacePrompts) {
  const RescanEncoder reference(shared_tokenizer());
  drb::SuiteSpec spec;
  spec.per_racy_category = 2;
  spec.per_free_category = 2;
  for (const minilang::Flavor flavor :
       {minilang::Flavor::C, minilang::Flavor::Fortran}) {
    std::vector<std::string> inputs;
    for (const drb::TestCase& tc : drb::generate_suite(flavor, spec)) {
      inputs.push_back(tc.source);
      inputs.push_back(core::HpcGpt::race_instruction(
          minilang::render_snippet(tc.program, flavor)));
    }
    expect_same_segmentation(shared_tokenizer(), reference, inputs);
  }
}

TEST(BpeOracle, MatchesRescanOnRandomBytesAndRuns) {
  const RescanEncoder reference(shared_tokenizer());
  std::vector<std::string> inputs{""};
  for (int b = 0; b < 256; ++b) inputs.emplace_back(1, static_cast<char>(b));
  Rng rng(12);
  // Uniform bytes, and text drawn from a small alphabet that the shared
  // merges cover densely.
  const std::string alphabet = " \n\tabcdeilnoprst()[]{};=+*#!,.:'\"";
  for (int k = 0; k < 200; ++k) {
    std::string bytes(rng.next_below(300), '\0');
    for (char& c : bytes) c = static_cast<char>(rng.next_below(256));
    inputs.push_back(std::move(bytes));
    std::string text(rng.next_below(300), '\0');
    for (char& c : text) c = alphabet[rng.next_below(alphabet.size())];
    inputs.push_back(std::move(text));
  }
  for (const char b : {' ', '\n', 'a', 'l', '\xff'}) {
    inputs.emplace_back(5000, b);
  }
  expect_same_segmentation(shared_tokenizer(), reference, inputs);
}

TEST(BpeOracle, MatchesRescanUnderRandomMergeTables) {
  // Tables over a three-letter alphabet whose merges pick any two defined
  // ids (repeats included): dense overlaps and ties that a trained table
  // rarely produces.
  Rng rng(7);
  for (int table = 0; table < 30; ++table) {
    const std::size_t merges = 1 + rng.next_below(40);
    std::string serialized = "bpe-v1 " + std::to_string(merges) + "\n";
    std::vector<TokenId> defined{'a', 'b', 'c'};
    for (std::size_t m = 0; m < merges; ++m) {
      serialized += std::to_string(defined[rng.next_below(defined.size())]) +
                    " " +
                    std::to_string(defined[rng.next_below(defined.size())]) +
                    "\n";
      defined.push_back(static_cast<TokenId>(BpeTokenizer::kFirstMerge + m));
    }
    const BpeTokenizer tok = BpeTokenizer::load(serialized);
    const RescanEncoder reference(tok);
    std::vector<std::string> inputs;
    for (int k = 0; k < 100; ++k) {
      std::string text(rng.next_below(48), '\0');
      for (char& c : text) c = static_cast<char>('a' + rng.next_below(3));
      inputs.push_back(std::move(text));
    }
    SCOPED_TRACE(serialized);
    expect_same_segmentation(tok, reference, inputs);
  }
}

// ---------------------------------------------------------------- similarity

TEST(Similarity, RougeIdenticalIsOne) {
  EXPECT_DOUBLE_EQ(rouge_l("what dataset for clone detection",
                           "what dataset for clone detection"),
                   1.0);
}

TEST(Similarity, RougeDisjointIsZero) {
  EXPECT_DOUBLE_EQ(rouge_l("alpha beta", "gamma delta"), 0.0);
}

TEST(Similarity, RougeDetectsNearDuplicates) {
  const double sim = rouge_l(
      "What dataset can be used for clone detection tasks?",
      "What dataset can be used for the clone detection task?");
  EXPECT_GT(sim, 0.7);  // the Self-Instruct dedup threshold
}

TEST(Similarity, RougeCaseAndPunctuationInsensitive) {
  EXPECT_DOUBLE_EQ(rouge_l("Hello, World!", "hello world"), 1.0);
}

TEST(Similarity, RougeSymmetric) {
  const char* a = "data race detection in openmp programs";
  const char* b = "openmp data race analysis";
  EXPECT_DOUBLE_EQ(rouge_l(a, b), rouge_l(b, a));
}

TEST(Similarity, EmptyInputs) {
  EXPECT_DOUBLE_EQ(rouge_l("", ""), 1.0);
  EXPECT_DOUBLE_EQ(rouge_l("x", ""), 0.0);
}

// ---------------------------------------------------------------- chunker

TEST(Chunker, ShortDocumentSingleChunk) {
  const auto chunks = chunk_document("just a few words", {});
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], "just a few words");
}

TEST(Chunker, EmptyDocumentNoChunks) {
  EXPECT_TRUE(chunk_document("", {}).empty());
  EXPECT_TRUE(chunk_document("   \n  ", {}).empty());
}

TEST(Chunker, RespectsMaxWords) {
  std::string doc;
  for (int i = 0; i < 500; ++i) doc += std::string("w") + std::to_string(i) + " ";
  ChunkOptions opt;
  opt.max_words = 100;
  opt.overlap_words = 10;
  const auto chunks = chunk_document(doc, opt);
  EXPECT_GT(chunks.size(), 4u);
  for (const auto& c : chunks) {
    EXPECT_LE(hpcgpt::strings::word_count(c), 100u);
  }
}

TEST(Chunker, OverlapCarriesWords) {
  std::string doc;
  for (int i = 0; i < 250; ++i) doc += std::string("w") + std::to_string(i) + " ";
  ChunkOptions opt;
  opt.max_words = 100;
  opt.overlap_words = 20;
  const auto chunks = chunk_document(doc, opt);
  ASSERT_GE(chunks.size(), 2u);
  // Last 20 words of chunk 0 == first 20 words of chunk 1.
  EXPECT_NE(chunks[1].find("w80 "), std::string::npos);
}

TEST(Chunker, EveryWordAppearsInSomeChunk) {
  std::string doc;
  for (int i = 0; i < 333; ++i) doc += "tok" + std::to_string(i) + " ";
  const auto chunks = chunk_document(doc, {});
  std::string all;
  for (const auto& c : chunks) all += c + " ";
  for (int i = 0; i < 333; ++i) {
    EXPECT_NE(all.find("tok" + std::to_string(i) + " "), std::string::npos)
        << "word " << i << " missing";
  }
}

TEST(Chunker, CodeChunkingByLines) {
  std::string code;
  for (int i = 0; i < 30; ++i) code += "line" + std::to_string(i) + "\n";
  const auto chunks = chunk_code(code, /*max_lines=*/10, /*overlap_lines=*/2);
  EXPECT_GE(chunks.size(), 3u);
  EXPECT_NE(chunks[0].find("line0"), std::string::npos);
  EXPECT_NE(chunks.back().find("line29"), std::string::npos);
}

TEST(Chunker, InvalidOptionsThrow) {
  ChunkOptions bad;
  bad.max_words = 0;
  EXPECT_THROW(chunk_document("x", bad), InvalidArgument);
  bad.max_words = 10;
  bad.overlap_words = 10;
  EXPECT_THROW(chunk_document("x", bad), InvalidArgument);
  EXPECT_THROW(chunk_code("x", 0), InvalidArgument);
}

}  // namespace
}  // namespace hpcgpt::text
