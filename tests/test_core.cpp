#include <gtest/gtest.h>

#include "hpcgpt/core/evaluation.hpp"
#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/datagen/pipeline.hpp"
#include "hpcgpt/json/json.hpp"
#include "hpcgpt/kb/kb.hpp"
#include "hpcgpt/serve/server.hpp"

// The deprecated string submit() overload is still part of the serving
// contract; the Serve tests below pin its forwarding behavior down.
#pragma GCC diagnostic ignored "-Wdeprecated-declarations"

namespace hpcgpt::core {
namespace {

/// One shared tokenizer for the whole suite (training BPE is not free).
const text::BpeTokenizer& tokenizer() {
  static const text::BpeTokenizer tok = build_shared_tokenizer();
  return tok;
}

/// A small instruction dataset, cached across tests.
const datagen::InstructionDataset& dataset() {
  static const datagen::InstructionDataset data = [] {
    datagen::TeacherOptions o;
    o.seed = 33;
    datagen::TeacherModel teacher(o);
    // Task 1 at small scale plus a Task-2 slice: enough signal to learn,
    // small enough for unit-test budgets.
    datagen::InstructionDataset t1 =
        datagen::collect_task1(teacher, {.scale_divisor = 16, .seed = 34});
    datagen::InstructionDataset all = std::move(t1);
    Rng rng(35);
    datagen::InstructionFilter filter;
    for (const minilang::Flavor f :
         {minilang::Flavor::C, minilang::Flavor::Fortran}) {
      for (const drb::Category c : drb::all_categories()) {
        for (int k = 0; k < 14; ++k) {
          const drb::TestCase tc = drb::generate_case(c, f, rng);
          filter.offer(teacher.generate_race(tc).completion,
                       datagen::Task::Task2Race, drb::category_name(c),
                       minilang::flavor_name(f),
                       tc.has_race ? "yes" : "no");
        }
      }
    }
    for (auto& r : filter.take()) all.records.push_back(std::move(r));
    return all;
  }();
  return data;
}

ModelOptions tiny_spec(std::size_t pretrain_steps = 60) {
  ModelOptions o;
  o.name = "test_model";
  o.config = default_architecture();
  o.pretrain_steps = pretrain_steps;
  o.seed = 9;
  return o;
}

TEST(Tokenizer, SharedTokenizerCompressesBothDomains) {
  const auto& tok = tokenizer();
  EXPECT_GT(tok.merge_count(), 100u);
  const std::string snippet = "#pragma omp parallel for reduction(+:sum)";
  EXPECT_LT(tok.encode(snippet).size(), snippet.size() / 2);
  EXPECT_EQ(tok.decode(tok.encode(snippet)), snippet);
}

TEST(HpcGptModel, PretrainReducesPerplexity) {
  HpcGpt model(tiny_spec(0), tokenizer());
  const std::string probe =
      "A data race occurs when two threads perform conflicting accesses";
  const auto ids = [&] {
    auto v = tokenizer().encode(probe);
    v.insert(v.begin(), text::BpeTokenizer::kBos);
    return v;
  }();
  std::vector<std::int32_t> targets(ids.size(), -1);
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) targets[i] = ids[i + 1];

  const double before = model.model().eval_loss(ids, targets);
  HpcGpt trained(tiny_spec(150), tokenizer());
  trained.pretrain(kb::unstructured_corpus(), {});
  const double after = trained.model().eval_loss(ids, targets);
  EXPECT_LT(after, before * 0.8)
      << "before=" << before << " after=" << after;
}

TEST(HpcGptModel, RaceInstructionMatchesTable1Format) {
  const std::string inst = HpcGpt::race_instruction("x = 1;");
  EXPECT_NE(inst.find("Given the code snippet:"), std::string::npos);
  EXPECT_NE(inst.find("Answer 'yes'"), std::string::npos);
  EXPECT_NE(inst.find("x = 1;"), std::string::npos);
}

TEST(HpcGptModel, ClassifyRaceRespectsTokenLimit) {
  HpcGpt model(tiny_spec(0), tokenizer());
  std::string huge;
  for (int i = 0; i < 500; ++i) huge += "a[" + std::to_string(i) + "] = 1;\n";
  EXPECT_EQ(model.classify_race({.prompt = huge, .token_limit = 256}).verdict,
            RaceVerdict::TooLong);
  const RaceVerdict v =
      model.classify_race({.prompt = "x = x + 1;", .token_limit = 256})
          .verdict;
  EXPECT_TRUE(v == RaceVerdict::Yes || v == RaceVerdict::No);
}

TEST(HpcGptModel, FinetuneLearnsYesNoMapping) {
  HpcGpt model(tiny_spec(80), tokenizer());
  model.pretrain(kb::unstructured_corpus(), {});
  model.model().attach_lora(4, 8.0f, /*train_lora_only=*/true);

  FinetuneOptions opts;
  opts.epochs = 3;
  opts.learning_rate = 1e-3f;
  opts.max_records = 250;
  const FinetuneReport report = model.finetune(dataset().records, opts);
  EXPECT_GT(report.steps, 0u);
  EXPECT_LT(report.last_epoch_loss, report.first_epoch_loss);
  EXPECT_GT(report.trainable_parameters, 0u);
  // LoRA/PEFT: trainable share must be a small fraction of the total.
  const std::size_t total =
      nn::parameter_count(model.model().parameters());
  EXPECT_LT(report.trainable_parameters, total / 2);
}

TEST(Evaluation, FinetunedBeatsBaseOnRaceSuite) {
  // The paper's headline claim at miniature scale: SFT on generated
  // instruction data improves race-classification accuracy over the base
  // model. Uses a reduced suite for test speed.
  drb::SuiteSpec spec;
  spec.per_racy_category = 2;
  spec.per_free_category = 2;
  spec.seed = 91;
  const auto suite = drb::generate_suite(minilang::Flavor::C, spec);

  HpcGpt base(tiny_spec(80), tokenizer());
  base.pretrain(kb::unstructured_corpus(), {});
  const eval::Confusion base_conf = evaluate_llm(base, suite, 256);

  // Full fine-tuning keeps this integration test robust at its small data
  // budget; the LoRA path is exercised by FinetuneLearnsYesNoMapping and
  // the nn gradient checks, and quantified by the A4 ablation bench.
  HpcGpt tuned(tiny_spec(80), tokenizer());
  tuned.pretrain(kb::unstructured_corpus(), {});
  FinetuneOptions opts;
  opts.epochs = 3;
  opts.learning_rate = 2e-3f;
  const auto task2 = dataset().of_task(datagen::Task::Task2Race);
  std::vector<datagen::InstructionRecord> records;
  for (const auto* r : task2) records.push_back(*r);
  tuned.finetune(records, opts);
  const eval::Confusion tuned_conf = evaluate_llm(tuned, suite, 256);

  EXPECT_GT(tuned_conf.accuracy(), base_conf.accuracy())
      << "tuned=" << tuned_conf.accuracy()
      << " base=" << base_conf.accuracy();
  EXPECT_GT(tuned_conf.accuracy(), 0.58);
}

TEST(Evaluation, DetectorHarnessCountsUnsupported) {
  drb::SuiteSpec spec;
  spec.per_racy_category = 1;
  spec.per_free_category = 1;
  const auto suite = drb::generate_suite(minilang::Flavor::Fortran, spec);
  auto romp = race::make_romp();
  const eval::Confusion c = evaluate_detector(*romp, suite);
  EXPECT_EQ(c.total(), suite.size());
  EXPECT_GT(c.unsupported, 0u);  // target + Fortran simd categories
  EXPECT_LT(c.tsr(), 1.0);
}

TEST(Evaluation, Task1ExactMatchScoresContainment) {
  HpcGpt model(tiny_spec(0), tokenizer());
  // Untrained model: exact-match accuracy is essentially zero.
  const auto held_out = dataset().of_task(datagen::Task::Task1Mlperf);
  const double acc = task1_exact_match(model, held_out, 5);
  EXPECT_GE(acc, 0.0);
  EXPECT_LE(acc, 1.0);
}

TEST(Generation, GenerateReportsAccountingAndMatchesAsk) {
  HpcGpt model(tiny_spec(0), tokenizer());
  GenerationRequest request;
  request.prompt = "What is a data race?";
  request.max_new_tokens = 5;
  request.id = 77;
  const GenerationResult result = model.generate(request);
  EXPECT_EQ(result.id, 77u);
  EXPECT_TRUE(result.ok());
  EXPECT_GT(result.prompt_tokens, 0u);
  EXPECT_LE(result.generated_tokens, 5u);
  if (result.generated_tokens == 5u) {
    EXPECT_EQ(result.finish, FinishReason::Budget);
  } else {
    EXPECT_EQ(result.finish, FinishReason::Eos);
  }
  EXPECT_GT(result.latency_seconds, 0.0);
  // ask() is a thin wrapper over the same path: identical text.
  EXPECT_EQ(result.text, model.ask(request.prompt, 5));
}

TEST(Generation, GenerateHonorsTokenLimit) {
  HpcGpt model(tiny_spec(0), tokenizer());
  GenerationRequest request;
  request.prompt = "What is a data race in an OpenMP worksharing loop?";
  request.token_limit = 1;  // any real prompt exceeds this
  const GenerationResult result = model.generate(request);
  EXPECT_EQ(result.finish, FinishReason::ContextLimit);
  EXPECT_TRUE(result.text.empty());
  EXPECT_EQ(result.generated_tokens, 0u);
  EXPECT_GT(result.prompt_tokens, 1u);
  EXPECT_TRUE(result.ok());  // it ran; it just hit the context budget
}

TEST(Generation, ClassifyRaceTypedAgreesWithLegacyWrapper) {
  HpcGpt model(tiny_spec(0), tokenizer());
  const std::string snippet =
      "for (i = 0; i < n; i++) { a[i] = a[i] + 1; }";
  GenerationRequest request;
  request.prompt = snippet;
  request.token_limit = 256;
  const RaceClassification rc = model.classify_race(request);
  EXPECT_NE(rc.verdict, RaceVerdict::TooLong);
  EXPECT_EQ(rc.result.finish, FinishReason::Eos);
  EXPECT_GT(rc.result.prompt_tokens, 0u);
  EXPECT_TRUE(rc.result.text == "yes" || rc.result.text == "no");

  // Starved token budget: typed TooLong pairs with ContextLimit.
  request.token_limit = 2;
  const RaceClassification too_long = model.classify_race(request);
  EXPECT_EQ(too_long.verdict, RaceVerdict::TooLong);
  EXPECT_EQ(too_long.result.finish, FinishReason::ContextLimit);
  EXPECT_TRUE(too_long.result.text.empty());
}

TEST(Serve, ServerAnswersConcurrentRequests) {
  HpcGpt model(tiny_spec(0), tokenizer());
  serve::InferenceServer server(model, serve::ServeConfig{.max_batch = 3});
  std::vector<std::future<GenerationResult>> futures;
  for (int i = 0; i < 8; ++i) {
    GenerationRequest request;
    request.prompt = "What is a data race?";
    futures.push_back(server.submit(std::move(request)));
  }
  for (auto& f : futures) {
    EXPECT_TRUE(f.get().ok());
  }
  server.shutdown();
  const json::Value metrics(server.metrics().snapshot());
  EXPECT_EQ(metrics.at("counters").at("serve.requests.completed").as_int(), 8);
}

TEST(Serve, SubmitAfterShutdownIsTypedRejected) {
  HpcGpt model(tiny_spec(0), tokenizer());
  serve::InferenceServer server(model, serve::ServeConfig{.max_batch = 1});
  server.shutdown();
  GenerationRequest request;
  request.prompt = "late question";
  const GenerationResult result = server.submit(std::move(request)).get();
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.finish, FinishReason::Rejected);
}

}  // namespace
}  // namespace hpcgpt::core
