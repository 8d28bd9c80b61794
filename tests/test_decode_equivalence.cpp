// Decode-equivalence suite: the inference engine's fast path (GEMM
// prefill + KV-cached decode_step / decode_step_batch) must be
// observationally identical to the reference path that re-runs the full
// logits() forward for every position. Greedy token-id identity is the
// contract the serving stack depends on — a kernel or cache-layout bug
// that shifts logits enough to flip an argmax shows up here for every
// model preset of the experiment zoo.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <span>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/support/rng.hpp"

namespace {

using namespace hpcgpt;

const text::BpeTokenizer& shared_tokenizer() {
  static const text::BpeTokenizer tok = core::build_shared_tokenizer();
  return tok;
}

core::HpcGpt make_preset(core::BaseModel base,
                         tensor::QuantMode quant = tensor::QuantMode::Fp32) {
  core::ModelOptions spec = core::spec_for(base);
  // Untrained weights: equivalence is a property of the forward math, not
  // of training, and skipping pretraining keeps the suite fast. Each
  // preset still gets its own init seed, so all four weight sets differ.
  spec.pretrain_steps = 0;
  spec.quant = quant;
  return core::HpcGpt(spec, shared_tokenizer());
}

text::TokenId argmax(std::span<const float> logits) {
  return static_cast<text::TokenId>(std::distance(
      logits.begin(), std::max_element(logits.begin(), logits.end())));
}

std::vector<text::TokenId> random_prompt(Rng& rng, std::size_t len,
                                         std::size_t vocab) {
  std::vector<text::TokenId> ids(len);
  for (auto& id : ids) {
    // Skip the special tokens (0..3): real prompts start with BOS and
    // then carry ordinary vocabulary.
    id = static_cast<text::TokenId>(4 + rng.next_below(vocab - 4));
  }
  return ids;
}

/// Reference greedy generation: one full logits() forward per emitted
/// token, argmax of the last row. O(T^2) per token — the path the engine
/// replaces, kept here as ground truth.
std::vector<text::TokenId> greedy_reference(nn::Transformer& model,
                                            std::vector<text::TokenId> ids,
                                            std::size_t steps) {
  std::vector<text::TokenId> out;
  for (std::size_t s = 0; s < steps; ++s) {
    const tensor::Matrix logits = model.logits(ids);
    const text::TokenId next = argmax(logits.row(logits.rows() - 1));
    out.push_back(next);
    ids.push_back(next);
  }
  return out;
}

/// Engine greedy generation: one prefill over the prompt, then KV-cached
/// decode_step per token.
std::vector<text::TokenId> greedy_engine(
    const nn::Transformer& model, const std::vector<text::TokenId>& ids,
    std::size_t steps) {
  nn::DecodeState state = model.new_decode_state();
  std::vector<text::TokenId> out;
  text::TokenId next = argmax(model.prefill(state, ids));
  for (std::size_t s = 0; s < steps; ++s) {
    out.push_back(next);
    if (s + 1 < steps) next = argmax(model.decode_step(state, next));
  }
  return out;
}

class DecodeEquivalence
    : public ::testing::TestWithParam<core::BaseModel> {};

TEST_P(DecodeEquivalence, PrefillPlusDecodeMatchesFullForwards) {
  core::HpcGpt model = make_preset(GetParam());
  const std::size_t vocab = model.model().config().vocab_size;
  Rng rng(2023);
  for (const std::size_t prompt_len : {1u, 3u, 7u, 16u, 33u}) {
    const auto prompt = random_prompt(rng, prompt_len, vocab);
    const auto expect = greedy_reference(model.model(), prompt, 12);
    const auto got = greedy_engine(model.model(), prompt, 12);
    EXPECT_EQ(expect, got) << model.name() << " prompt_len=" << prompt_len;
  }
}

TEST_P(DecodeEquivalence, BatchedDecodeMatchesSingleLane) {
  // Lanes with different prompts, advanced together through
  // decode_step_batch; a twin set advanced one lane at a time through
  // decode_step, which is the batch-of-one case of the same forward.
  // Every logits row must match bit for bit: cross-request batching is a
  // scheduling transform, not a numerics change. In fp32 and fp16 that
  // rests on the GEMM's contract that a row's bits do not depend on how
  // many rows share the call, so 16 lanes take the kernel's 7-row tiles
  // and their remainder against its one-row path; int8 also checks the
  // shared activation quantization.
  struct Case {
    tensor::QuantMode quant;
    std::size_t lanes;
  };
  for (const Case c : {Case{tensor::QuantMode::Fp32, 4},
                       Case{tensor::QuantMode::Fp32, 16},
                       Case{tensor::QuantMode::Fp16, 4},
                       Case{tensor::QuantMode::Int8, 4}}) {
    core::HpcGpt model = make_preset(GetParam(), c.quant);
    const nn::Transformer& m = model.model();
    const std::size_t vocab = m.config().vocab_size;
    const std::size_t row_bytes = vocab * sizeof(float);
    const std::size_t lanes = c.lanes;
    Rng rng(7);

    constexpr std::size_t kSteps = 10;
    std::vector<std::vector<text::TokenId>> prompts;
    for (std::size_t b = 0; b < lanes; ++b) {
      prompts.push_back(random_prompt(rng, 2 + 3 * b, vocab));
    }

    std::vector<nn::DecodeState> batch_states;
    std::vector<nn::DecodeState> single_states;
    std::vector<text::TokenId> next(lanes);
    for (std::size_t b = 0; b < lanes; ++b) {
      batch_states.push_back(m.new_decode_state());
      single_states.push_back(m.new_decode_state());
      const std::span<const float> batch_logits =
          m.prefill(batch_states[b], prompts[b]);
      const std::span<const float> single_logits =
          m.prefill(single_states[b], prompts[b]);
      ASSERT_EQ(std::memcmp(batch_logits.data(), single_logits.data(),
                            row_bytes),
                0)
          << model.name() << " " << tensor::quant_mode_name(c.quant)
          << " prefill lane " << b;
      next[b] = argmax(batch_logits);
    }

    nn::BatchScratch scratch;
    std::vector<nn::DecodeState*> lane_ptrs;
    for (auto& s : batch_states) lane_ptrs.push_back(&s);
    for (std::size_t step = 0; step < kSteps; ++step) {
      const tensor::Matrix& logits =
          m.decode_step_batch(lane_ptrs, next, scratch);
      for (std::size_t b = 0; b < lanes; ++b) {
        const std::span<const float> single =
            m.decode_step(single_states[b], next[b]);
        ASSERT_EQ(std::memcmp(logits.row(b).data(), single.data(), row_bytes),
                  0)
            << model.name() << " " << tensor::quant_mode_name(c.quant)
            << " lanes=" << lanes << " lane=" << b << " step=" << step;
        next[b] = argmax(logits.row(b));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, DecodeEquivalence,
    ::testing::Values(core::BaseModel::Llama, core::BaseModel::Llama2,
                      core::BaseModel::Gpt35, core::BaseModel::Gpt4),
    [](const ::testing::TestParamInfo<core::BaseModel>& info) {
      return core::spec_for(info.param).name;
    });

}  // namespace
