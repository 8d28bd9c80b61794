#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/core/rag.hpp"
#include "hpcgpt/kb/kb.hpp"
#include "hpcgpt/support/error.hpp"

namespace hpcgpt::core {
namespace {

const text::BpeTokenizer& tokenizer() {
  static const text::BpeTokenizer tok = build_shared_tokenizer();
  return tok;
}

ModelOptions tiny_spec() {
  ModelOptions o;
  o.name = "bundle_test";
  o.config = default_architecture();
  o.pretrain_steps = 40;
  o.seed = 77;
  return o;
}

// ------------------------------------------------------------- bundle

TEST(Bundle, RoundTripPreservesBehaviour) {
  HpcGpt model(tiny_spec(), tokenizer());
  model.pretrain(kb::unstructured_corpus(), {});
  const std::string blob = model.save_bundle();
  HpcGpt restored = HpcGpt::load_bundle(blob);

  EXPECT_EQ(restored.name(), "bundle_test");
  // Same tokenizer.
  EXPECT_EQ(restored.tokenizer().merge_count(),
            model.tokenizer().merge_count());
  // Same classification decisions (weights round-trip through fp16, but
  // the argmax of a yes/no comparison is stable for a trained model).
  const char* snippets[] = {
      "x = x + 1;",
      "#pragma omp parallel for\nfor (i = 1; i < 9; i++) { a[i] = a[i-1]; }",
  };
  for (const char* s : snippets) {
    const GenerationRequest request{.prompt = s, .token_limit = 256};
    EXPECT_EQ(static_cast<int>(restored.classify_race(request).verdict),
              static_cast<int>(model.classify_race(request).verdict))
        << s;
  }
}

TEST(Bundle, FileRoundTrip) {
  HpcGpt model(tiny_spec(), tokenizer());
  const std::string path = ::testing::TempDir() + "hpcgpt_bundle_test.bin";
  model.save_bundle_file(path);
  HpcGpt restored = HpcGpt::load_bundle_file(path);
  EXPECT_EQ(restored.name(), model.name());
  std::remove(path.c_str());
}

TEST(Bundle, RejectsCorruptBlobs) {
  EXPECT_THROW(HpcGpt::load_bundle("nonsense"), ParseError);
  HpcGpt model(tiny_spec(), tokenizer());
  std::string blob = model.save_bundle();
  EXPECT_THROW(HpcGpt::load_bundle(blob.substr(0, blob.size() / 3)),
               ParseError);
  // An intact bundle whose tokenizer chunk holds a self-referencing merge:
  // the chunks are the magic, then name, tokenizer and checkpoint, each
  // behind an 8-byte little-endian length.
  const auto chunk_length = [&blob](std::size_t pos) {
    std::uint64_t n = 0;
    for (int i = 0; i < 8; ++i) {
      n |= static_cast<std::uint64_t>(
               static_cast<unsigned char>(blob[pos + i]))
           << (8 * i);
    }
    return static_cast<std::size_t>(n);
  };
  const std::size_t name_at = std::string("hpcgpt-bundle-v1").size();
  const std::size_t tokenizer_at = name_at + 8 + chunk_length(name_at);
  const std::string hostile = "bpe-v1 1\n260 97\n";
  std::string crafted = blob.substr(0, tokenizer_at);
  for (int i = 0; i < 8; ++i) {
    crafted += static_cast<char>((hostile.size() >> (8 * i)) & 0xFF);
  }
  crafted += hostile;
  crafted += blob.substr(tokenizer_at + 8 + chunk_length(tokenizer_at));
  EXPECT_THROW(HpcGpt::load_bundle(crafted), ParseError);
}

// --------------------------------------------------------------- rag

retrieval::SearchEngine demo_engine(retrieval::RetrievalConfig config = {}) {
  const std::vector<std::string> facts{
      "The system is gb200_nvl72 if the accelerator used is NVIDIA GB200 "
      "and the software used is PyTorch Release 24.10.",
      "The CodeTrans dataset can be used for code translation tasks from "
      "Java to C#.",
      "The private clause gives each thread its own copy of a variable.",
  };
  retrieval::TfidfEmbedder emb;
  emb.fit(facts);
  retrieval::SearchEngine engine(emb, config);
  engine.add_all(facts);
  return engine;
}

TEST(Rag, SearchEngineRouteRetrievesSameContextOnEveryEngine) {
  HpcGpt model(tiny_spec(), tokenizer());
  const char* question =
      "which system pairs the GB200 accelerator with PyTorch Release 24.10?";
  for (const auto engine_kind : {retrieval::RetrievalConfig::Engine::Scan,
                                 retrieval::RetrievalConfig::Engine::Indexed}) {
    retrieval::RetrievalConfig config;
    config.engine = engine_kind;
    const auto engine = demo_engine(config);
    const RagAnswer answer = rag_ask(model, engine, question);
    ASSERT_TRUE(answer.used_context)
        << retrieval::engine_name(engine_kind);
    ASSERT_FALSE(answer.context.empty());
    EXPECT_NE(answer.context[0].text.find("gb200_nvl72"), std::string::npos)
        << retrieval::engine_name(engine_kind);
  }
}

TEST(Rag, SearchEngineIrrelevantQueryFallsBack) {
  HpcGpt model(tiny_spec(), tokenizer());
  const auto engine = demo_engine();
  const RagAnswer answer =
      rag_ask(model, engine, "zzz qqq completely unrelated vvv");
  EXPECT_FALSE(answer.used_context);
  EXPECT_TRUE(answer.context.empty());
}

TEST(Rag, TopKIsBounded) {
  HpcGpt model(tiny_spec(), tokenizer());
  const auto engine = demo_engine();
  RagOptions opts;
  opts.top_k = 1;
  const RagAnswer answer =
      rag_ask(model, engine, "code translation Java C# dataset", opts);
  EXPECT_LE(answer.context.size(), 1u);
}

}  // namespace
}  // namespace hpcgpt::core
