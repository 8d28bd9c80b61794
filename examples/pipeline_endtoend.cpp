// pipeline_endtoend: the complete Figure 1 architecture in one program —
//
//   stage 1  HPC domain data collection  (teacher + filtering/pruning)
//   stage 2  training                    (pre-train + LoRA SFT)
//   stage 3  evaluation                  (race suite + Task-1 QA)
//   stage 4  deployment                  (threaded inference server)

#include <cstdio>
#include <future>

#include "hpcgpt/core/evaluation.hpp"
#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/datagen/pipeline.hpp"
#include "hpcgpt/kb/kb.hpp"
#include "hpcgpt/serve/server.hpp"
#include "hpcgpt/support/timer.hpp"

using namespace hpcgpt;

int main() {
  Timer total;

  // ---------------- stage 1: HPC domain data collection ----------------
  std::printf("[stage 1] HPC domain data collection\n");
  datagen::TeacherOptions topts;
  topts.seed = 99;
  datagen::TeacherModel teacher(topts);
  datagen::Task1Spec t1;
  t1.scale_divisor = 16;
  datagen::InstructionDataset dataset = datagen::collect_task1(teacher, t1);
  {
    datagen::InstructionFilter filter;
    Rng rng(100);
    for (const minilang::Flavor f :
         {minilang::Flavor::C, minilang::Flavor::Fortran}) {
      for (const drb::Category c : drb::all_categories()) {
        for (int k = 0; k < 8; ++k) {
          const drb::TestCase tc = drb::generate_case(c, f, rng);
          filter.offer(teacher.generate_race(tc).completion,
                       datagen::Task::Task2Race, drb::category_name(c),
                       minilang::flavor_name(f),
                       tc.has_race ? "yes" : "no");
        }
      }
    }
    for (auto& r : filter.take()) dataset.records.push_back(std::move(r));
  }
  std::printf("  collected %zu records (task1 rejections: %zu)\n",
              dataset.records.size(), dataset.task1_stats.rejected());

  // ---------------- stage 2: training ----------------------------------
  std::printf("[stage 2] training (pre-train + supervised fine-tuning)\n");
  const text::BpeTokenizer tokenizer = core::build_shared_tokenizer();
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama2);
  spec.name = "hpc-gpt-e2e";
  core::HpcGpt model(spec, tokenizer);
  model.pretrain(kb::unstructured_corpus(), {});
  model.model().attach_lora(16, 32.0f, true);
  core::FinetuneOptions fopts;
  fopts.epochs = 3;
  fopts.learning_rate = 1e-3f;
  const core::FinetuneReport report = model.finetune(dataset.records, fopts);
  std::printf("  sft loss %.3f -> %.3f over %zu steps (%.1fs)\n",
              report.first_epoch_loss, report.last_epoch_loss, report.steps,
              report.wall_seconds);

  // ---------------- stage 3: evaluation ---------------------------------
  std::printf("[stage 3] evaluation\n");
  drb::SuiteSpec eval_spec;
  eval_spec.per_racy_category = 3;
  eval_spec.per_free_category = 3;
  eval_spec.seed = 777;
  const auto suite = drb::generate_suite(minilang::Flavor::C, eval_spec);
  const eval::Confusion conf = core::evaluate_llm(model, suite, 256);
  std::printf("  race suite: accuracy %.3f (tp %zu fp %zu tn %zu fn %zu)\n",
              conf.accuracy(), conf.tp, conf.fp, conf.tn, conf.fn);
  const double qa = core::task1_exact_match(
      model, dataset.of_task(datagen::Task::Task1Mlperf), 20);
  std::printf("  task-1 exact-entity accuracy: %.2f\n", qa);

  // ---------------- stage 4: deployment ---------------------------------
  std::printf("[stage 4] deployment (inference server, 3 workers)\n");
  serve::InferenceServer server(model, serve::ServeConfig{.max_batch = 3});
  std::vector<std::future<core::GenerationResult>> pending;
  const std::vector<std::string> questions{
      "Which dataset fits defect detection tasks written in C?",
      "What accelerator does the dgxa100_n8 system use?",
      "Name a representative baseline model for the CodeSearchNet dataset.",
  };
  for (const std::string& q : questions) {
    core::GenerationRequest request;
    request.prompt = q;
    pending.push_back(server.submit(std::move(request)));
  }
  for (std::size_t i = 0; i < questions.size(); ++i) {
    const core::GenerationResult result = pending[i].get();
    std::printf("  Q: %s\n  A: %s   [%zu tokens, %s, %.0f ms]\n",
                questions[i].c_str(), result.text.c_str(),
                result.generated_tokens,
                std::string(core::finish_reason_name(result.finish)).c_str(),
                result.latency_seconds * 1e3);
  }
  server.shutdown();
  std::printf("  served %zu requests (max queue depth %zu)\n",
              server.stats().requests_served,
              server.stats().max_queue_depth);

  std::printf("\npipeline complete in %.1fs\n", total.seconds());
  return 0;
}
