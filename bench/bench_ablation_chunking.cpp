// §5 ablation — chunk partitioning: the paper's proposed mitigation for
// snippets exceeding the context limit is to "break down large code
// snippets into smaller, manageable segments ... analyze each segment
// individually and then combine the results". This bench compares the
// naive path (oversized snippet -> unsupported) against per-chunk
// classification with an any-chunk-races combiner on the oversized C/C++
// cases.

#include <cstdio>

#include "bench_common.hpp"
#include "hpcgpt/core/evaluation.hpp"
#include "hpcgpt/datagen/pipeline.hpp"
#include "hpcgpt/eval/metrics.hpp"
#include "hpcgpt/kb/kb.hpp"
#include "hpcgpt/minilang/render.hpp"
#include "hpcgpt/text/chunker.hpp"

using namespace hpcgpt;

namespace {

core::RaceVerdict classify(core::HpcGpt& model, const std::string& snippet,
                          std::size_t token_limit) {
  return model.classify_race({.prompt = snippet, .token_limit = token_limit})
      .verdict;
}

/// Chunked classification: split at line granularity, classify each
/// chunk, answer "yes" when any chunk is judged racy.
core::RaceVerdict classify_chunked(core::HpcGpt& model,
                                   const std::string& snippet,
                                   std::size_t token_limit) {
  const auto direct = classify(model, snippet, token_limit);
  if (direct != core::RaceVerdict::TooLong) return direct;
  bool any_yes = false;
  bool any_judged = false;
  for (const std::string& chunk : text::chunk_code(snippet, 12, 2)) {
    const auto v = classify(model, chunk, token_limit);
    if (v == core::RaceVerdict::TooLong) continue;
    any_judged = true;
    any_yes |= (v == core::RaceVerdict::Yes);
  }
  if (!any_judged) return core::RaceVerdict::TooLong;
  return any_yes ? core::RaceVerdict::Yes : core::RaceVerdict::No;
}

}  // namespace

int main() {
  bench::banner("Ablation A2 — chunk partitioning for oversized snippets");

  datagen::TeacherOptions topts;
  topts.seed = 41;
  datagen::TeacherModel teacher(topts);
  const datagen::InstructionDataset dataset =
      datagen::collect_task2(teacher, {.seed = 42});

  const text::BpeTokenizer tokenizer = core::build_shared_tokenizer();
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama2);
  spec.name = "HPC-GPT (L2)";
  if (bench::fast_mode()) spec.pretrain_steps /= 10;
  core::HpcGpt model(spec, tokenizer);
  model.pretrain(kb::unstructured_corpus(), {});
  model.model().attach_lora(16, 32.0f, true);
  core::FinetuneOptions fopts;
  fopts.epochs = bench::fast_mode() ? 1 : 3;
  fopts.learning_rate = 1e-3f;
  fopts.max_records = bench::fast_mode() ? 100 : 800;
  model.finetune(dataset.records, fopts);

  const auto suite = drb::evaluation_suite(minilang::Flavor::C);
  constexpr std::size_t kLimit = 256;

  eval::Confusion naive;
  eval::Confusion chunked;
  std::size_t oversized = 0;
  for (const drb::TestCase& tc : suite) {
    const std::string snippet =
        minilang::render_snippet(tc.program, tc.flavor);
    const auto direct = classify(model, snippet, kLimit);
    if (direct == core::RaceVerdict::TooLong) {
      ++oversized;
      naive.add_unsupported();
    } else {
      naive.add(tc.has_race, direct == core::RaceVerdict::Yes);
    }
    const auto combined = classify_chunked(model, snippet, kLimit);
    if (combined == core::RaceVerdict::TooLong) {
      chunked.add_unsupported();
    } else {
      chunked.add(tc.has_race, combined == core::RaceVerdict::Yes);
    }
  }

  std::printf("oversized cases in the suite: %zu of %zu\n\n", oversized,
              suite.size());
  std::vector<std::vector<std::string>> rows;
  const auto emit = [&](const char* name, const eval::Confusion& c) {
    rows.push_back({name, std::to_string(c.unsupported),
                    eval::fmt4(c.tsr()), eval::fmt4(c.accuracy()),
                    eval::fmt4(c.adjusted_f1())});
  };
  emit("naive (drop oversized)", naive);
  emit("chunk + combine (§5)", chunked);
  std::printf("%s", eval::render_table({"Strategy", "Unsupported", "TSR",
                                        "Accuracy", "Adjusted F1"},
                                       rows)
                        .c_str());

  bench::section("reading");
  std::printf(
      "Chunking recovers the excluded cases (TSR -> 1.0) at some accuracy\n"
      "cost on the recovered ones: a chunk seen in isolation loses the\n"
      "surrounding parallel context, so the combiner trades recall of the\n"
      "oversized subset against extra false positives — the trade-off the\n"
      "paper anticipates for its proposed mitigation.\n");
  return 0;
}
