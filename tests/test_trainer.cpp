#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "hpcgpt/core/evaluation.hpp"
#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/drb/drb.hpp"
#include "hpcgpt/kb/kb.hpp"
#include "hpcgpt/nn/trainer.hpp"
#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/support/error.hpp"

namespace hpcgpt::nn {
namespace {

using text::TokenId;

TransformerConfig tiny_config() {
  TransformerConfig c;
  c.vocab_size = 16;
  c.d_model = 8;
  c.n_heads = 2;
  c.n_layers = 1;
  c.d_ff = 16;
  c.max_seq = 12;
  return c;
}

TrainSequence seq_of(std::initializer_list<int> ids) {
  TrainSequence s;
  for (const int id : ids) s.ids.push_back(static_cast<TokenId>(id));
  s.targets.assign(s.ids.size(), -1);
  for (std::size_t i = 0; i + 1 < s.ids.size(); ++i) {
    s.targets[i] = static_cast<std::int32_t>(s.ids[i + 1]);
  }
  return s;
}

/// A little copy-task corpus: enough shapes to shard unevenly.
std::vector<TrainSequence> copy_task_sequences() {
  std::vector<TrainSequence> out;
  for (int k = 0; k < 11; ++k) {
    TrainSequence s;
    for (int i = 0; i < 4 + (k % 3); ++i) {
      s.ids.push_back(static_cast<TokenId>(1 + (k + i) % 14));
    }
    s.targets.assign(s.ids.size(), -1);
    for (std::size_t i = 0; i + 1 < s.ids.size(); ++i) {
      s.targets[i] = static_cast<std::int32_t>(s.ids[i + 1]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<float> flat_weights(Transformer& model) {
  ParameterList params = model.parameters();
  FlatParamView view(params);
  std::vector<float> out(view.size());
  view.gather_values(out);
  return out;
}

// ------------------------------------------------------- pack_sequences

TEST(PackSequences, ConcatenatesAndMasksBoundaries) {
  std::vector<TrainSequence> in = {seq_of({1, 2, 3}), seq_of({4, 5, 6, 7}),
                                   seq_of({8, 9, 10})};
  const auto packed = pack_sequences(in, /*max_seq=*/8);

  // 3 + 4 fit in 8; adding 3 more would overflow, so the third starts a
  // new pack.
  ASSERT_EQ(packed.size(), 2u);
  ASSERT_EQ(packed[0].ids.size(), 7u);
  EXPECT_EQ(packed[1].ids.size(), 3u);

  // Order-preserving concatenation of the token stream.
  const std::vector<TokenId> want = {1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(packed[0].ids, want);

  // The boundary position (last of the first example) must be masked so
  // the loss never spans examples; interior targets are untouched.
  EXPECT_EQ(packed[0].targets[1], 3);
  EXPECT_EQ(packed[0].targets[2], -1);  // boundary
  EXPECT_EQ(packed[0].targets[3], 5);
  EXPECT_EQ(packed[0].targets.back(), -1);

  // Token count is conserved.
  std::size_t in_tokens = 0, out_tokens = 0;
  for (const auto& s : in) in_tokens += s.ids.size();
  for (const auto& s : packed) out_tokens += s.ids.size();
  EXPECT_EQ(in_tokens, out_tokens);
}

TEST(PackSequences, DropsEmptiesAndRejectsOverlong) {
  std::vector<TrainSequence> in = {TrainSequence{}, seq_of({1, 2}),
                                   TrainSequence{}, seq_of({3, 4})};
  const auto packed = pack_sequences(in, 4);
  ASSERT_EQ(packed.size(), 1u);
  EXPECT_EQ(packed[0].ids.size(), 4u);

  std::vector<TrainSequence> too_long = {seq_of({1, 2, 3, 4, 5})};
  EXPECT_THROW(pack_sequences(too_long, 4), InvalidArgument);
}

TEST(PackSequences, ExactFitStaysAlone) {
  std::vector<TrainSequence> in = {seq_of({1, 2, 3, 4}), seq_of({5, 6})};
  const auto packed = pack_sequences(in, 4);
  ASSERT_EQ(packed.size(), 2u);
  // No boundary was crossed, so the first pack's targets are unchanged
  // apart from its own trailing -1.
  EXPECT_EQ(packed[0].targets[2], 4);
}

// ------------------------------------------------------------ fused Adam

/// The pre-refactor reference: a per-tensor loop with per-parameter
/// moment matrices. The fused flat pass must reproduce it bitwise.
double reference_adam_step(const ParameterList& params,
                           const AdamConfig& cfg, std::size_t t,
                           std::vector<std::vector<float>>& m,
                           std::vector<std::vector<float>>& v) {
  double grad_sq = 0.0;
  for (const Parameter* p : params) {
    if (!p->trainable) continue;
    for (std::size_t i = 0; i < p->grad.size(); ++i) {
      const float g = p->grad.flat()[i];
      grad_sq += static_cast<double>(g) * static_cast<double>(g);
    }
  }
  const double norm = std::sqrt(grad_sq);
  float clip = 1.0f;
  if (cfg.grad_clip > 0.0f && norm > cfg.grad_clip) {
    clip = cfg.grad_clip / static_cast<float>(norm);
  }
  const float bias1 = 1.0f - std::pow(cfg.beta1, static_cast<float>(t));
  const float bias2 = 1.0f - std::pow(cfg.beta2, static_cast<float>(t));
  std::size_t slot = 0;
  for (Parameter* p : params) {
    if (!p->trainable) continue;
    std::vector<float>& pm = m[slot];
    std::vector<float>& pv = v[slot];
    pm.resize(p->count(), 0.0f);
    pv.resize(p->count(), 0.0f);
    ++slot;
    for (std::size_t i = 0; i < p->count(); ++i) {
      const float g = p->grad.flat()[i] * clip;
      pm[i] = cfg.beta1 * pm[i] + (1.0f - cfg.beta1) * g;
      pv[i] = cfg.beta2 * pv[i] + (1.0f - cfg.beta2) * g * g;
      const float m_hat = pm[i] / bias1;
      const float v_hat = pv[i] / bias2;
      float update = m_hat / (std::sqrt(v_hat) + cfg.epsilon);
      if (cfg.weight_decay > 0.0f) update += cfg.weight_decay * p->value.flat()[i];
      p->value.flat()[i] -= cfg.learning_rate * update;
    }
  }
  return norm;
}

TEST(FusedAdam, MatchesPerTensorReferenceBitwise) {
  Rng rng(17);
  Parameter a("a", 3, 4), b("b", 2, 5), frozen("frozen", 2, 2);
  frozen.trainable = false;
  for (Parameter* p : {&a, &b, &frozen}) {
    p->value.randomize(rng, 0.5f);
    p->grad.randomize(rng, 2.0f);  // large grads so clipping engages
  }

  Parameter ra = a, rb = b, rfrozen = frozen;
  ParameterList fused_params = {&a, &b, &frozen};
  ParameterList ref_params = {&ra, &rb, &rfrozen};

  AdamConfig cfg;
  cfg.weight_decay = 0.01f;
  Adam adam(cfg);
  std::vector<std::vector<float>> m(2), v(2);
  for (std::size_t t = 1; t <= 3; ++t) {
    // Fresh deterministic grads each step, shared by both sides.
    Rng grng(100 + t);
    for (std::size_t i = 0; i < fused_params.size(); ++i) {
      fused_params[i]->grad.randomize(grng, t == 1 ? 2.0f : 0.1f);
      ref_params[i]->grad = fused_params[i]->grad;
    }
    const double got = adam.step(fused_params);
    const double want = reference_adam_step(ref_params, cfg, t, m, v);
    EXPECT_EQ(got, want) << "norm diverged at step " << t;
  }
  for (std::size_t i = 0; i < a.count(); ++i) {
    ASSERT_EQ(a.value.flat()[i], ra.value.flat()[i]);
  }
  for (std::size_t i = 0; i < b.count(); ++i) {
    ASSERT_EQ(b.value.flat()[i], rb.value.flat()[i]);
  }
  // Frozen parameters are untouched by both.
  for (std::size_t i = 0; i < frozen.count(); ++i) {
    ASSERT_EQ(frozen.value.flat()[i], rfrozen.value.flat()[i]);
  }
  EXPECT_EQ(adam.steps_taken(), 3u);
}

TEST(FusedAdam, FlatAndParameterListEntryPointsAgree) {
  Rng rng(23);
  Parameter a("a", 4, 4);
  a.value.randomize(rng, 0.3f);
  a.grad.randomize(rng, 0.3f);
  Parameter copy = a;

  Adam via_list((AdamConfig()));
  ParameterList params = {&a};
  const double n1 = via_list.step(params);

  Adam via_flat((AdamConfig()));
  std::vector<float> values(copy.count()), grads(copy.count());
  FlatParamView view(ParameterList{&copy});
  view.gather_values(values);
  view.gather_grads(grads);
  const double n2 = via_flat.step(values, grads);
  view.scatter_values(values);

  EXPECT_EQ(n1, n2);
  for (std::size_t i = 0; i < a.count(); ++i) {
    ASSERT_EQ(a.value.flat()[i], copy.value.flat()[i]);
  }
}

// --------------------------------------------------------------- Trainer

TEST(Trainer, SingleWorkerMatchesClassicLoopBitwise) {
  const auto data = copy_task_sequences();

  // Engine path: workers=1, micro_batch=1.
  Transformer engine_model(tiny_config(), 7);
  TrainerOptions topts;
  Trainer trainer(engine_model, topts);
  const TrainStats stats = trainer.run_epoch(data);

  // The classic loop this engine replaced: one step per sequence.
  Transformer loop_model(tiny_config(), 7);
  Adam adam((AdamConfig()));
  double loss_sum = 0.0;
  for (const TrainSequence& s : data) {
    loop_model.zero_grad();
    loss_sum += loop_model.train_step(s.ids, s.targets).loss;
    adam.step(loop_model.parameters());
  }

  EXPECT_EQ(stats.sequences, data.size());
  EXPECT_EQ(stats.optimizer_steps, data.size());
  EXPECT_EQ(stats.mean_loss, loss_sum / static_cast<double>(data.size()));
  const auto we = flat_weights(engine_model);
  const auto wl = flat_weights(loop_model);
  ASSERT_EQ(we.size(), wl.size());
  for (std::size_t i = 0; i < we.size(); ++i) ASSERT_EQ(we[i], wl[i]);
}

TEST(Trainer, WorkerCountDoesNotChangeTheResult) {
  const auto data = copy_task_sequences();

  auto run = [&](std::size_t workers) {
    Transformer model(tiny_config(), 7);
    TrainerOptions topts;
    topts.workers = workers;
    topts.micro_batch = 4;
    Trainer trainer(model, topts);
    TrainStats last{};
    for (int epoch = 0; epoch < 3; ++epoch) last = trainer.run_epoch(data);
    return std::make_pair(last, flat_weights(model));
  };

  const auto [s1, w1] = run(1);
  // Three workers do not divide the micro-batch of four, so their claims
  // are uneven; every sequence still has its own gradient slot and the
  // slots sum in a tree fixed by the step, so the bits cannot move.
  for (const std::size_t workers : {3u, 4u}) {
    const auto [sw, ww] = run(workers);
    EXPECT_EQ(s1.sequences, sw.sequences) << workers << " workers";
    EXPECT_EQ(s1.optimizer_steps, sw.optimizer_steps) << workers << " workers";
    EXPECT_EQ(s1.target_positions, sw.target_positions)
        << workers << " workers";
    EXPECT_EQ(s1.mean_loss, sw.mean_loss) << workers << " workers";
    EXPECT_EQ(s1.last_grad_norm, sw.last_grad_norm) << workers << " workers";
    ASSERT_EQ(w1.size(), ww.size());
    for (std::size_t i = 0; i < w1.size(); ++i) {
      ASSERT_EQ(w1[i], ww[i]) << "weight " << i << ", " << workers
                              << " workers";
    }
  }
}

TEST(Trainer, TrainStepWritesNoFrozenGradient) {
  // The trainer zeroes gradients through its FlatParamView, which holds
  // only the trainable parameters; that is enough only while train_step
  // leaves every frozen parameter's gradient alone.
  Transformer model(tiny_config(), 5);
  model.attach_lora(2, 4.0f, /*train_lora_only=*/true);
  model.zero_grad();
  const TrainSequence s = copy_task_sequences()[2];
  model.train_step(s.ids, s.targets);
  std::size_t frozen = 0;
  for (const Parameter* p : model.parameters()) {
    if (p->trainable) continue;
    ++frozen;
    for (const float g : p->grad.flat()) ASSERT_EQ(g, 0.0f) << p->name;
  }
  EXPECT_GT(frozen, 0u);
}

TEST(Trainer, FailingSequenceThrowsAfterEveryWorkerStops) {
  // A claim that throws must not leave other workers running on the
  // epoch's frame: the error surfaces once every worker has stopped, and
  // the trainer stays usable.
  auto data = copy_task_sequences();
  data[5].ids[1] = 99;  // outside the 16-token vocabulary
  Transformer model(tiny_config(), 7);
  TrainerOptions topts;
  topts.workers = 4;
  topts.micro_batch = 4;
  Trainer trainer(model, topts);
  EXPECT_THROW(trainer.run_epoch(data), InvalidArgument);
  EXPECT_TRUE(std::isfinite(trainer.run_epoch(copy_task_sequences()).mean_loss));
}

TEST(Trainer, ParallelRunIsDeterministic) {
  const auto data = copy_task_sequences();
  auto run = [&] {
    Transformer model(tiny_config(), 19);
    TrainerOptions topts;
    topts.workers = 3;
    topts.micro_batch = 4;
    Trainer trainer(model, topts);
    trainer.run_epoch(data);
    trainer.run_epoch(data);
    return flat_weights(model);
  };
  const auto w1 = run();
  const auto w2 = run();
  // The fixed-order tree reduction makes the float sum independent of
  // thread timing: two runs are bitwise identical.
  ASSERT_EQ(w1.size(), w2.size());
  for (std::size_t i = 0; i < w1.size(); ++i) ASSERT_EQ(w1[i], w2[i]);
}

TEST(Trainer, MicroBatchingStillLearnsCopyTask) {
  const auto data = copy_task_sequences();
  Transformer model(tiny_config(), 3);
  TrainerOptions topts;
  topts.workers = 2;
  topts.micro_batch = 3;
  topts.adam.learning_rate = 3e-3f;
  Trainer trainer(model, topts);
  const double first = trainer.run_epoch(data).mean_loss;
  double last = first;
  for (int epoch = 0; epoch < 14; ++epoch) last = trainer.run_epoch(data).mean_loss;
  EXPECT_LT(last, first * 0.7) << "first=" << first << " last=" << last;
}

TEST(Trainer, RecordsEngineMetrics) {
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t steps_before = reg.counter("nn.train.steps").value();
  const std::uint64_t opt_before =
      reg.counter("nn.train.optimizer_steps").value();

  const auto data = copy_task_sequences();
  Transformer model(tiny_config(), 2);
  TrainerOptions topts;
  topts.workers = 2;
  topts.micro_batch = 4;
  Trainer trainer(model, topts);
  trainer.run_epoch(data);

  EXPECT_EQ(reg.counter("nn.train.steps").value() - steps_before,
            data.size());
  EXPECT_EQ(reg.counter("nn.train.optimizer_steps").value() - opt_before,
            (data.size() + 3) / 4);
  EXPECT_EQ(reg.gauge("nn.train.workers").value(), 2);
  // Milli-scaled gauge mirrors the last pre-clip grad norm.
  EXPECT_GT(reg.gauge("nn.train.grad_norm_milli").value(), 0);
}

TEST(Trainer, ZeroWorkersExpandsToHardwareConcurrency) {
  Transformer model(tiny_config(), 1);
  TrainerOptions topts;
  topts.workers = 0;
  Trainer trainer(model, topts);
  EXPECT_GE(trainer.workers(), 1u);
}

}  // namespace
}  // namespace hpcgpt::nn

// ------------------------------------------------ core-level regression

namespace hpcgpt::core {
namespace {

/// Hand-written instruction records: cheap, deterministic, and enough for
/// the engine plumbing (the learning-quality tests live in test_core).
std::vector<datagen::InstructionRecord> toy_records() {
  std::vector<datagen::InstructionRecord> records;
  const char* qa[][2] = {
      {"Does `a[i] = i;` in an omp for race?", "no"},
      {"Does `sum += x;` without reduction race?", "yes"},
      {"Does `b[i] = b[i] + 1;` in an omp for race?", "no"},
      {"Does `count++` in a parallel region race?", "yes"},
      {"Does a critical-protected update race?", "no"},
      {"Does an unsynchronized shared write race?", "yes"},
      {"Does a firstprivate copy race?", "no"},
      {"Does `max_v = v;` without atomic race?", "yes"},
  };
  for (const auto& [q, a] : qa) {
    datagen::InstructionRecord r;
    r.instruction = q;
    r.output = a;
    r.task = datagen::Task::Task2Race;
    records.push_back(std::move(r));
  }
  return records;
}

ModelOptions trainer_spec(std::size_t pretrain_steps = 0) {
  ModelOptions o;
  o.name = "trainer_test_model";
  o.config = default_architecture();
  o.pretrain_steps = pretrain_steps;
  o.seed = 9;
  return o;
}

TEST(FinetuneDeterminism, IdenticalRunsProduceIdenticalBundles) {
  const text::BpeTokenizer tokenizer = build_shared_tokenizer();
  const auto records = toy_records();

  auto run = [&] {
    HpcGpt model(trainer_spec(), tokenizer);
    FinetuneOptions opts;
    opts.epochs = 2;
    opts.shuffle_seed = 5;
    opts.train.workers = 2;
    opts.train.micro_batch = 2;
    opts.train.pack_sequences = true;
    model.finetune(records, opts);
    return model.save_bundle();
  };

  // Same shuffle_seed, same data, parallel engine on: the checkpoints
  // must be byte-identical — the determinism contract of the trainer.
  const std::string b1 = run();
  const std::string b2 = run();
  EXPECT_EQ(b1, b2);
}

TEST(FinetuneEquivalence, WorkersMatchSequentialOnTask2) {
  const text::BpeTokenizer tokenizer = build_shared_tokenizer();
  const auto records = toy_records();

  auto run = [&](std::size_t workers) {
    HpcGpt model(trainer_spec(60), tokenizer);
    model.pretrain(kb::unstructured_corpus(), {});
    FinetuneOptions opts;
    opts.epochs = 3;
    opts.train.workers = workers;
    opts.train.micro_batch = 4;
    const FinetuneReport report = model.finetune(records, opts);
    drb::SuiteSpec spec;
    spec.per_racy_category = 1;
    spec.per_free_category = 1;
    spec.seed = 91;
    const auto suite = drb::generate_suite(minilang::Flavor::C, spec);
    const eval::Confusion conf = evaluate_llm(model, suite, 256);
    return std::make_pair(report, conf.accuracy());
  };

  const auto [r1, acc1] = run(1);
  const auto [r4, acc4] = run(4);

  EXPECT_EQ(r4.workers, 4u);
  EXPECT_EQ(r1.steps, r4.steps);
  // Same global schedule, one gradient slot per sequence and a fixed
  // reduction tree: the worker count changes no bit of the weights.
  EXPECT_EQ(r1.first_epoch_loss, r4.first_epoch_loss);
  EXPECT_EQ(r1.last_epoch_loss, r4.last_epoch_loss);
  EXPECT_EQ(acc1, acc4);
}

}  // namespace
}  // namespace hpcgpt::core
