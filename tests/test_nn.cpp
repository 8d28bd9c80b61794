#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "hpcgpt/nn/adam.hpp"
#include "hpcgpt/nn/checkpoint.hpp"
#include "hpcgpt/nn/sampler.hpp"
#include "hpcgpt/nn/transformer.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/tensor/kernels.hpp"

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

std::vector<TokenId> ids_of(std::initializer_list<int> xs) {
  std::vector<TokenId> out;
  for (const int x : xs) out.push_back(static_cast<TokenId>(x));
  return out;
}

std::vector<std::int32_t> shifted_targets(const std::vector<TokenId>& ids) {
  // Next-token targets: position i predicts ids[i+1]; last position ignored.
  std::vector<std::int32_t> t(ids.size(), -1);
  for (std::size_t i = 0; i + 1 < ids.size(); ++i) t[i] = ids[i + 1];
  return t;
}

/// tiny_config with room for multi_page_ids() and a few decode steps.
TransformerConfig multi_page_config() {
  TransformerConfig c = tiny_config();
  c.max_seq = 40;
  return c;
}

/// 37 tokens: three 16-position KV pages, the last one partial.
std::vector<TokenId> multi_page_ids() {
  std::vector<TokenId> ids(37);
  for (std::size_t t = 0; t < ids.size(); ++t) {
    ids[t] = static_cast<TokenId>((t * 7 + 3) % 16);
  }
  return ids;
}

/// Restores the kernel tier that was active at construction.
struct TierGuard {
  tensor::kernels::IsaTier entry = tensor::kernels::active().tier;
  ~TierGuard() { tensor::kernels::set_active_tier(entry); }
};

// ------------------------------------------------------------ shapes

TEST(Transformer, LogitsShape) {
  Transformer model(tiny_config(), 42);
  const auto ids = ids_of({1, 2, 3, 4});
  const auto logits = model.logits(ids);
  EXPECT_EQ(logits.rows(), 4u);
  EXPECT_EQ(logits.cols(), 16u);
}

TEST(Transformer, RejectsBadInput) {
  Transformer model(tiny_config(), 42);
  EXPECT_THROW(model.logits({}), InvalidArgument);
  EXPECT_THROW(model.logits(ids_of({99})), InvalidArgument);  // OOV
  std::vector<TokenId> too_long(13, 1);                       // > max_seq
  EXPECT_THROW(model.logits(too_long), InvalidArgument);
  TransformerConfig bad = tiny_config();
  bad.d_model = 10;  // not divisible by n_heads=2? it is; use 9
  bad.d_model = 9;
  EXPECT_THROW(Transformer m(bad), InvalidArgument);
}

TEST(Transformer, DeterministicForSameSeed) {
  Transformer a(tiny_config(), 7);
  Transformer b(tiny_config(), 7);
  const auto ids = ids_of({3, 1, 4, 1, 5});
  const auto la = a.logits(ids);
  const auto lb = b.logits(ids);
  for (std::size_t i = 0; i < la.size(); ++i) {
    EXPECT_EQ(la.flat()[i], lb.flat()[i]);
  }
}

TEST(Transformer, CausalityFuturePositionsDoNotAffectPast) {
  Transformer model(tiny_config(), 11);
  const auto short_ids = ids_of({2, 5, 7});
  const auto long_ids = ids_of({2, 5, 7, 9, 3});
  const auto ls = model.logits(short_ids);
  const auto ll = model.logits(long_ids);
  // Logits at positions 0..2 must be identical: causal masking.
  for (std::size_t t = 0; t < 3; ++t) {
    for (std::size_t v = 0; v < 16; ++v) {
      EXPECT_NEAR(ls.at(t, v), ll.at(t, v), 1e-5f) << "t=" << t << " v=" << v;
    }
  }
}

// ------------------------------------------------------------ gradients

/// Finite-difference check: analytic gradient from train_step against
/// numerical (f(w+h)-f(w-h))/2h on a sample of coordinates of every
/// parameter tensor. This validates the entire manual backprop chain
/// (embeddings, RMSNorm, attention, SwiGLU, head, cross-entropy).
void expect_gradients_match_finite_differences(
    const TransformerConfig& config, const std::vector<TokenId>& ids) {
  Transformer model(config, 123);
  const auto targets = shifted_targets(ids);

  model.zero_grad();
  model.train_step(ids, targets);

  const double h = 1e-3;
  for (Parameter* p : model.parameters()) {
    // Sample a handful of coordinates per tensor.
    const std::size_t n = p->count();
    for (std::size_t pick = 0; pick < std::min<std::size_t>(n, 5); ++pick) {
      const std::size_t i = (pick * 7919) % n;
      const float saved = p->value.flat()[i];
      p->value.flat()[i] = saved + static_cast<float>(h);
      const double up = model.eval_loss(ids, targets);
      p->value.flat()[i] = saved - static_cast<float>(h);
      const double down = model.eval_loss(ids, targets);
      p->value.flat()[i] = saved;
      const double numeric = (up - down) / (2.0 * h);
      const double analytic = p->grad.flat()[i];
      EXPECT_NEAR(analytic, numeric,
                  5e-3 * std::max(1.0, std::abs(numeric)))
          << p->name << "[" << i << "]";
    }
  }
}

// Attention runs on the paged kernels, so every tier is checked: within
// one page (6 tokens) and across three pages with a partial tail.
TEST(Transformer, GradientsMatchFiniteDifferences) {
  TierGuard guard;
  for (const tensor::kernels::IsaTier tier :
       tensor::kernels::supported_tiers()) {
    ASSERT_TRUE(tensor::kernels::set_active_tier(tier));
    SCOPED_TRACE(tensor::kernels::tier_name(tier));
    expect_gradients_match_finite_differences(tiny_config(),
                                              ids_of({1, 4, 2, 7, 3, 7}));
    expect_gradients_match_finite_differences(multi_page_config(),
                                              multi_page_ids());
  }
}

TEST(Transformer, LoraGradientsMatchFiniteDifferences) {
  TransformerConfig c = tiny_config();
  c.lora_rank = 2;
  c.lora_alpha = 4.0f;
  c.train_lora_only = true;
  Transformer model(c, 321);
  const auto ids = ids_of({2, 9, 5, 1});
  const auto targets = shifted_targets(ids);

  model.zero_grad();
  model.train_step(ids, targets);

  const double h = 1e-3;
  bool checked_adapter = false;
  for (Parameter* p : model.parameters()) {
    if (!p->trainable) {
      // Frozen parameters must accumulate no gradient at all.
      EXPECT_DOUBLE_EQ(p->grad.squared_norm(), 0.0) << p->name;
      continue;
    }
    if (p->name.find("lora") == std::string::npos) continue;
    checked_adapter = true;
    const std::size_t n = p->count();
    for (std::size_t pick = 0; pick < std::min<std::size_t>(n, 4); ++pick) {
      const std::size_t i = (pick * 131) % n;
      const float saved = p->value.flat()[i];
      p->value.flat()[i] = saved + static_cast<float>(h);
      const double up = model.eval_loss(ids, targets);
      p->value.flat()[i] = saved - static_cast<float>(h);
      const double down = model.eval_loss(ids, targets);
      p->value.flat()[i] = saved;
      const double numeric = (up - down) / (2.0 * h);
      EXPECT_NEAR(p->grad.flat()[i], numeric,
                  5e-3 * std::max(1.0, std::abs(numeric)))
          << p->name << "[" << i << "]";
    }
  }
  EXPECT_TRUE(checked_adapter);
}

// ------------------------------------------------------------ training

TEST(Transformer, TrainingReducesLossOnCopyTask) {
  TransformerConfig c = tiny_config();
  Transformer model(c, 55);
  Adam opt(AdamConfig{.learning_rate = 3e-3f});

  // Task: echo a fixed phrase. Loss should collapse quickly.
  const auto ids = ids_of({1, 5, 9, 5, 9, 5, 9, 5});
  const auto targets = shifted_targets(ids);

  const double initial = model.eval_loss(ids, targets);
  for (int step = 0; step < 60; ++step) {
    model.zero_grad();
    model.train_step(ids, targets);
    opt.step(model.parameters());
  }
  const double trained = model.eval_loss(ids, targets);
  EXPECT_LT(trained, initial * 0.3) << "initial=" << initial
                                    << " trained=" << trained;
}

TEST(Transformer, LoraOnlyTrainingMovesAdaptersNotBase) {
  TransformerConfig c = tiny_config();
  c.lora_rank = 2;
  c.train_lora_only = true;
  Transformer model(c, 77);
  Adam opt(AdamConfig{.learning_rate = 5e-3f});

  // Snapshot frozen base weights.
  std::vector<std::vector<float>> base_before;
  for (Parameter* p : model.parameters()) {
    if (!p->trainable) {
      base_before.emplace_back(p->value.flat().begin(),
                               p->value.flat().end());
    }
  }

  const auto ids = ids_of({2, 3, 4, 3, 4, 3});
  const auto targets = shifted_targets(ids);
  for (int step = 0; step < 20; ++step) {
    model.zero_grad();
    model.train_step(ids, targets);
    opt.step(model.parameters());
  }

  std::size_t idx = 0;
  for (Parameter* p : model.parameters()) {
    if (!p->trainable) {
      const auto& before = base_before[idx++];
      for (std::size_t i = 0; i < p->count(); ++i) {
        ASSERT_EQ(p->value.flat()[i], before[i])
            << "frozen weight moved: " << p->name;
      }
    }
  }
}

TEST(Transformer, LoraCutsTrainableParameterCount) {
  TransformerConfig full = tiny_config();
  Transformer dense(full, 1);
  TransformerConfig peft = tiny_config();
  peft.lora_rank = 2;
  peft.train_lora_only = true;
  Transformer lora(peft, 1);

  const auto dense_params = dense.parameters();
  auto lora_params = lora.parameters();
  const std::size_t dense_trainable =
      parameter_count(dense_params, /*trainable_only=*/true);
  const std::size_t lora_trainable =
      parameter_count(lora_params, /*trainable_only=*/true);
  EXPECT_LT(lora_trainable, dense_trainable / 2)
      << "LoRA should slash trainable parameters";
}

TEST(Transformer, MergeLoraPreservesLogits) {
  TransformerConfig c = tiny_config();
  c.lora_rank = 2;
  c.train_lora_only = true;
  Transformer model(c, 99);
  Adam opt(AdamConfig{.learning_rate = 5e-3f});
  const auto ids = ids_of({1, 2, 3, 4, 5});
  const auto targets = shifted_targets(ids);
  for (int step = 0; step < 10; ++step) {
    model.zero_grad();
    model.train_step(ids, targets);
    opt.step(model.parameters());
  }
  const auto before = model.logits(ids);
  model.merge_lora();
  const auto after = model.logits(ids);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after.flat()[i], before.flat()[i], 1e-3f);
  }
}

TEST(Transformer, ReplicaIsABitwiseCopy) {
  // A data-parallel replica copies the master instead of drawing a fresh
  // init: values, trainable flags and LoRA adapters match bitwise, and a
  // training step on it gives the master's loss and gradients.
  for (const bool lora : {false, true}) {
    TransformerConfig c = tiny_config();
    if (lora) {
      c.lora_rank = 2;
      c.train_lora_only = true;
    }
    Transformer master(c, 5);
    Adam opt(AdamConfig{.learning_rate = 5e-3f});
    const auto ids = ids_of({1, 2, 3, 4, 5, 6, 7});
    const auto targets = shifted_targets(ids);
    for (int step = 0; step < 3; ++step) {  // move off the initial values
      master.zero_grad();
      master.train_step(ids, targets);
      opt.step(master.parameters());
    }

    const std::unique_ptr<Transformer> replica = master.replica();
    const ParameterList mp = master.parameters();
    const ParameterList rp = replica->parameters();
    ASSERT_EQ(mp.size(), rp.size()) << "lora=" << lora;
    for (std::size_t i = 0; i < mp.size(); ++i) {
      EXPECT_EQ(mp[i]->name, rp[i]->name);
      EXPECT_EQ(mp[i]->trainable, rp[i]->trainable) << mp[i]->name;
      ASSERT_TRUE(mp[i]->value.same_shape(rp[i]->value)) << mp[i]->name;
      EXPECT_EQ(0, std::memcmp(mp[i]->value.data(), rp[i]->value.data(),
                               mp[i]->count() * sizeof(float)))
          << mp[i]->name << " lora=" << lora;
    }

    master.zero_grad();
    replica->zero_grad();
    const LossResult a = master.train_step(ids, targets);
    const LossResult b = replica->train_step(ids, targets);
    EXPECT_EQ(0, std::memcmp(&a.loss, &b.loss, sizeof a.loss));
    for (std::size_t i = 0; i < mp.size(); ++i) {
      EXPECT_EQ(0, std::memcmp(mp[i]->grad.data(), rp[i]->grad.data(),
                               mp[i]->count() * sizeof(float)))
          << mp[i]->name << " lora=" << lora;
    }
  }
}

TEST(Adam, StepCountAndGradNorm) {
  Transformer model(tiny_config(), 2);
  Adam opt(AdamConfig{});
  const auto ids = ids_of({1, 2, 3});
  model.zero_grad();
  model.train_step(ids, shifted_targets(ids));
  const double norm = opt.step(model.parameters());
  EXPECT_GT(norm, 0.0);
  EXPECT_EQ(opt.steps_taken(), 1u);
}

TEST(Adam, ClipBoundsUpdateMagnitude) {
  // With an enormous synthetic gradient, clipping must keep the weight
  // change on the order of learning_rate.
  Parameter p("w", 1, 4);
  p.value.fill(1.0f);
  p.grad.fill(1e6f);
  Adam opt(AdamConfig{.learning_rate = 0.01f, .grad_clip = 1.0f});
  ParameterList params{&p};
  opt.step(params);
  for (const float w : p.value.flat()) {
    EXPECT_NEAR(w, 1.0f - 0.01f, 5e-3f);
  }
}

TEST(Adam, SkipsFrozenParameters) {
  Parameter p("frozen", 1, 4);
  p.value.fill(2.0f);
  p.grad.fill(1.0f);
  p.trainable = false;
  Adam opt(AdamConfig{});
  ParameterList params{&p};
  opt.step(params);
  for (const float w : p.value.flat()) EXPECT_EQ(w, 2.0f);
}

// ------------------------------------------------------------ sampling

TEST(Sampler, GreedyIsDeterministic) {
  Transformer model(tiny_config(), 31);
  SampleOptions opt;
  opt.max_new_tokens = 6;
  const auto a = generate(model, ids_of({1, 2, 3}), opt);
  const auto b = generate(model, ids_of({1, 2, 3}), opt);
  EXPECT_EQ(a, b);
  EXPECT_LE(a.size(), 6u);
}

TEST(Sampler, RespectsContextLimit) {
  Transformer model(tiny_config(), 31);
  SampleOptions opt;
  opt.max_new_tokens = 100;  // way beyond max_seq=12
  const auto out = generate(model, ids_of({1, 2, 3}), opt);
  EXPECT_LE(3 + out.size(), 12u);
}

TEST(Sampler, TrainedModelGeneratesTargetContinuation) {
  TransformerConfig c = tiny_config();
  Transformer model(c, 8);
  Adam opt(AdamConfig{.learning_rate = 3e-3f});
  // Teach: after prompt [1, 2] always emit 9 then 10.
  const auto ids = ids_of({1, 2, 9, 10});
  std::vector<std::int32_t> targets{-1, 9, 10, -1};
  for (int step = 0; step < 80; ++step) {
    model.zero_grad();
    model.train_step(ids, targets);
    opt.step(model.parameters());
  }
  SampleOptions sopt;
  sopt.max_new_tokens = 2;
  const auto out = generate(model, ids_of({1, 2}), sopt);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0], 9);
  EXPECT_EQ(out[1], 10);
}

TEST(Sampler, ContinuationLogprobPrefersTrainedAnswer) {
  TransformerConfig c = tiny_config();
  Transformer model(c, 8);
  Adam opt(AdamConfig{.learning_rate = 3e-3f});
  const auto ids = ids_of({1, 2, 9, 10});
  std::vector<std::int32_t> targets{-1, 9, 10, -1};
  for (int step = 0; step < 80; ++step) {
    model.zero_grad();
    model.train_step(ids, targets);
    opt.step(model.parameters());
  }
  const double good =
      continuation_logprob(model, ids_of({1, 2}), ids_of({9, 10}));
  const double bad =
      continuation_logprob(model, ids_of({1, 2}), ids_of({4, 4}));
  EXPECT_GT(good, bad);
}

// ------------------------------------------------------------ KV cache

TEST(DecodeCache, StepLogitsMatchFullForward) {
  Transformer model(tiny_config(), 91);
  const auto ids = ids_of({1, 4, 2, 7, 3});
  const auto full = model.logits(ids);
  DecodeState state = model.new_decode_state();
  for (std::size_t t = 0; t < ids.size(); ++t) {
    const std::span<const float> step = model.decode_step(state, ids[t]);
    ASSERT_EQ(step.size(), full.cols());
    for (std::size_t v = 0; v < step.size(); ++v) {
      EXPECT_NEAR(step[v], full.at(t, v), 1e-4f) << "t=" << t << " v=" << v;
    }
  }
  EXPECT_EQ(state.length(), ids.size());
}

TEST(DecodeCache, PrefillMatchesFullForward) {
  Transformer model(multi_page_config(), 91);
  const auto ids = multi_page_ids();
  const auto full = model.logits(ids);
  DecodeState state = model.new_decode_state();
  const std::span<const float> last = model.prefill(state, ids);
  EXPECT_EQ(state.length(), ids.size());
  ASSERT_EQ(last.size(), full.cols());
  for (std::size_t v = 0; v < last.size(); ++v) {
    EXPECT_NEAR(last[v], full.at(ids.size() - 1, v), 1e-4f) << "v=" << v;
  }
  // Decode after prefill attends over the prefilled K/V rows.
  const std::span<const float> next = model.decode_step(state, 5);
  auto longer = ids;
  longer.push_back(5);
  const auto full2 = model.logits(longer);
  for (std::size_t v = 0; v < next.size(); ++v) {
    EXPECT_NEAR(next[v], full2.at(longer.size() - 1, v), 1e-4f) << "v=" << v;
  }
}

TEST(DecodeCache, PrefillInChunksMatchesSinglePrefill) {
  Transformer model(tiny_config(), 23);
  const auto ids = ids_of({2, 6, 1, 8, 4, 3});
  DecodeState whole = model.new_decode_state();
  const std::span<const float> a = model.prefill(whole, ids);
  DecodeState chunked = model.new_decode_state();
  model.prefill(chunked, std::span<const text::TokenId>(ids).subspan(0, 2));
  const std::span<const float> b =
      model.prefill(chunked, std::span<const text::TokenId>(ids).subspan(2));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_NEAR(a[v], b[v], 1e-4f) << "v=" << v;
  }
}

TEST(DecodeCache, MatchesFullForwardWithLora) {
  TransformerConfig c = tiny_config();
  c.lora_rank = 2;
  c.lora_alpha = 4.0f;
  Transformer model(c, 92);
  // Give the adapters non-trivial values.
  for (Parameter* p : model.parameters()) {
    if (p->name.find("lora_b") != std::string::npos) {
      Rng rng(5);
      p->value.randomize(rng, 0.1f);
    }
  }
  const auto ids = ids_of({2, 9, 5, 1});
  const auto full = model.logits(ids);
  DecodeState state = model.new_decode_state();
  std::span<const float> last;
  for (const auto id : ids) last = model.decode_step(state, id);
  for (std::size_t v = 0; v < last.size(); ++v) {
    EXPECT_NEAR(last[v], full.at(ids.size() - 1, v), 1e-4f);
  }
}

TEST(DecodeCache, GenerateCachedEqualsGenerateGreedy) {
  TransformerConfig c = tiny_config();
  Transformer model(c, 8);
  Adam opt(AdamConfig{.learning_rate = 3e-3f});
  const auto train_ids = ids_of({1, 2, 9, 10});
  std::vector<std::int32_t> targets{-1, 9, 10, -1};
  for (int step = 0; step < 40; ++step) {
    model.zero_grad();
    model.train_step(train_ids, targets);
    opt.step(model.parameters());
  }
  SampleOptions sopt;
  sopt.max_new_tokens = 6;
  for (const auto& prompt :
       {ids_of({1, 2}), ids_of({3, 1, 4}), ids_of({7})}) {
    EXPECT_EQ(generate_cached(model, prompt, sopt),
              generate(model, prompt, sopt));
  }
}

TEST(DecodeCache, GenerateCachedEqualsGenerateSampled) {
  Transformer model(tiny_config(), 17);
  SampleOptions sopt;
  sopt.max_new_tokens = 8;
  sopt.temperature = 1.0f;
  sopt.seed = 4242;
  EXPECT_EQ(generate_cached(model, ids_of({1, 2, 3}), sopt),
            generate(model, ids_of({1, 2, 3}), sopt));
}

TEST(DecodeCache, RespectsContextLimit) {
  Transformer model(tiny_config(), 17);  // max_seq = 12
  SampleOptions sopt;
  sopt.max_new_tokens = 100;
  const auto out = generate_cached(model, ids_of({1, 2, 3}), sopt);
  EXPECT_LE(3 + out.size(), 12u);
  DecodeState state = model.new_decode_state();
  for (int i = 0; i < 12; ++i) model.decode_step(state, 1);
  EXPECT_THROW(model.decode_step(state, 1), InvalidArgument);
}

// ------------------------------------------------------------ checkpoint

TEST(Checkpoint, RoundTripPreservesLogitsWithinHalfPrecision) {
  Transformer model(tiny_config(), 63);
  const std::string blob = save_checkpoint(model);
  Transformer restored = load_checkpoint(blob);
  const auto ids = ids_of({1, 2, 3, 4});
  const auto a = model.logits(ids);
  const auto b = restored.logits(ids);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a.flat()[i], b.flat()[i],
                std::abs(a.flat()[i]) * 0.02f + 0.02f);
  }
}

TEST(Checkpoint, HalfPrecisionHalvesPayload) {
  Transformer model(tiny_config(), 63);
  const std::string blob = save_checkpoint(model);
  const std::size_t fp32_bytes =
      parameter_count(model.parameters()) * sizeof(float);
  EXPECT_LT(blob.size(), fp32_bytes * 3 / 4)
      << "fp16 checkpoint should be well under the fp32 footprint";
}

TEST(Checkpoint, RejectsCorruptedBlobs) {
  Transformer model(tiny_config(), 63);
  std::string blob = save_checkpoint(model);
  EXPECT_THROW(load_checkpoint("garbage"), ParseError);
  EXPECT_THROW(load_checkpoint(blob.substr(0, blob.size() / 2)), ParseError);
  std::string wrong_magic = blob;
  wrong_magic[0] = 'X';
  EXPECT_THROW(load_checkpoint(wrong_magic), ParseError);

  // Hostile headers are typed errors, raised before anything is
  // allocated: zero heads (d_model % n_heads would divide by zero) and a
  // vocabulary whose weights the blob cannot hold (the allocation would
  // exhaust memory).
  const auto with_field = [&](std::size_t field, std::uint64_t value) {
    std::string out = blob;
    const std::size_t at = std::strlen("hpcgpt-ckpt-v1") + 8 * field;
    for (std::size_t i = 0; i < 8; ++i) {
      out[at + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
    }
    return out;
  };
  EXPECT_THROW(load_checkpoint(with_field(2, 0)), ParseError);  // n_heads
  EXPECT_THROW(load_checkpoint(with_field(0, 1000000000000ull)),
               ParseError);  // vocab_size

  // The payload bound counts exactly the weights the model holds, LoRA
  // adapters included.
  TransformerConfig lora = tiny_config();
  lora.lora_rank = 2;
  for (const TransformerConfig& c : {tiny_config(), lora}) {
    Transformer m(c, 1);
    std::size_t weights = 0;
    for (const Parameter* p : m.parameters()) {
      weights += p->value.rows() * p->value.cols();
    }
    EXPECT_EQ(c.weight_count(), weights);
  }
}

TEST(Checkpoint, FileRoundTrip) {
  Transformer model(tiny_config(), 64);
  const std::string path = ::testing::TempDir() + "hpcgpt_ckpt_test.bin";
  save_checkpoint_file(model, path);
  Transformer restored = load_checkpoint_file(path);
  EXPECT_EQ(restored.config().d_model, model.config().d_model);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hpcgpt::nn
