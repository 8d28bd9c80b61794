// Quickstart: the smallest end-to-end use of the public API.
//
//   1. build the shared tokenizer,
//   2. generate a small instruction dataset with the teacher pipeline,
//   3. fine-tune an HPC-GPT model on it (LoRA/PEFT),
//   4. ask a Task-1 question and classify a Task-2 snippet.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "hpcgpt/core/evaluation.hpp"
#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/datagen/pipeline.hpp"
#include "hpcgpt/kb/kb.hpp"

using namespace hpcgpt;

int main() {
  std::printf("== HPC-GPT quickstart ==\n\n");

  // 1. Tokenizer shared by every model in the repository.
  const text::BpeTokenizer tokenizer = core::build_shared_tokenizer();
  std::printf("tokenizer: %zu merges, vocab %zu\n", tokenizer.merge_count(),
              tokenizer.vocab_size());

  // 2. Automatic instruction collection (paper §3.2) at a small scale.
  datagen::TeacherOptions topts;
  topts.seed = 7;
  datagen::TeacherModel teacher(topts);
  datagen::Task1Spec t1;
  t1.scale_divisor = 16;
  datagen::InstructionDataset dataset = datagen::collect_task1(teacher, t1);
  {
    // Add a slice of Task-2 records so the model learns both tasks.
    datagen::InstructionFilter filter;
    Rng rng(8);
    for (const drb::Category c : drb::all_categories()) {
      for (int k = 0; k < 10; ++k) {
        const drb::TestCase tc =
            drb::generate_case(c, minilang::Flavor::C, rng);
        filter.offer(teacher.generate_race(tc).completion,
                     datagen::Task::Task2Race, drb::category_name(c),
                     "C/C++", tc.has_race ? "yes" : "no");
      }
    }
    for (auto& r : filter.take()) dataset.records.push_back(std::move(r));
  }
  std::printf("dataset: %zu instruction records\n", dataset.records.size());

  // 3. Pre-train a base model, attach LoRA, fine-tune.
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama2);
  spec.name = "hpc-gpt-quickstart";
  core::HpcGpt model(spec, tokenizer);
  model.pretrain(kb::unstructured_corpus(), {});
  model.model().attach_lora(16, 32.0f, /*train_lora_only=*/true);
  core::FinetuneOptions fopts;
  fopts.epochs = 3;
  fopts.learning_rate = 1e-3f;
  const core::FinetuneReport report = model.finetune(dataset.records, fopts);
  std::printf("fine-tuned: %zu steps, loss %.3f -> %.3f, %zu trainable "
              "params, %.1fs\n\n",
              report.steps, report.first_epoch_loss,
              report.last_epoch_loss, report.trainable_parameters,
              report.wall_seconds);

  // 4a. Task 1: ask about models and datasets.
  const std::string question =
      "Which dataset fits clone detection tasks written in C/C++?";
  std::printf("Q: %s\nA: %s\n\n", question.c_str(),
              model.ask(question).c_str());

  // 4b. Task 2: classify a code snippet (the Table 1 example).
  const std::string snippet =
      "#pragma omp parallel for\n"
      "for (i = 1; i < 100; i++) {\n"
      "  y[i] = (x[i] + y[(i - 1)]);\n"
      "}\n";
  const core::RaceVerdict verdict =
      model.classify_race({.prompt = snippet, .token_limit = 256}).verdict;
  std::printf("snippet:\n%sdata race? %s\n", snippet.c_str(),
              verdict == core::RaceVerdict::Yes   ? "yes"
              : verdict == core::RaceVerdict::No  ? "no"
                                                  : "prompt too long");
  return 0;
}
