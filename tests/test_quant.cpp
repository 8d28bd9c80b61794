// Quantized-inference accuracy suite: int8/fp16 weight storage must keep
// a quantized model *useful*, not just fast. Three layers of guarantees:
// packed-matrix round-trips stay inside the per-channel rounding bound,
// whole-model logits stay close to the fp32 twin's across every preset of
// the experiment zoo, and greedy decoding — the thing serving actually
// exposes — picks the same next token almost always. Plus the lifecycle
// guards: a quantized model is inference-only (no train_step, no
// checkpointing, no re-quantization) and at least halves the resident
// weight footprint (the paper's §4.1 fp16 memory argument, taken further
// by int8).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/nn/checkpoint.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/tensor/quant.hpp"

namespace {

using namespace hpcgpt;
using tensor::Matrix;
using tensor::QuantizedMatrix;
using tensor::QuantMode;

const text::BpeTokenizer& shared_tokenizer() {
  static const text::BpeTokenizer tok = core::build_shared_tokenizer();
  return tok;
}

/// Untrained preset instance (same seed → the fp32 and quantized twins
/// start from identical weights; accuracy is a property of the forward
/// math, so skipping pretraining keeps the suite fast).
core::HpcGpt make_preset(core::BaseModel base, QuantMode quant) {
  core::ModelOptions spec = core::spec_for(base);
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
    id = static_cast<text::TokenId>(4 + rng.next_below(vocab - 4));
  }
  return ids;
}

TEST(QuantMode, NamesRoundTrip) {
  EXPECT_STREQ(tensor::quant_mode_name(QuantMode::Fp32), "fp32");
  EXPECT_STREQ(tensor::quant_mode_name(QuantMode::Fp16), "fp16");
  EXPECT_STREQ(tensor::quant_mode_name(QuantMode::Int8), "int8");
  EXPECT_EQ(tensor::parse_quant_mode("int8"), QuantMode::Int8);
  EXPECT_EQ(tensor::parse_quant_mode("fp16"), QuantMode::Fp16);
  EXPECT_EQ(tensor::parse_quant_mode("fp32"), QuantMode::Fp32);
  EXPECT_FALSE(tensor::parse_quant_mode("int4").has_value());
}

TEST(QuantizedMatrix, Int8RoundTripWithinRoundingBound) {
  Rng rng(21);
  constexpr std::pair<std::size_t, std::size_t> kShapes[] = {
      {48, 96}, {17, 23}, {96, 48}};
  for (const auto& [in, out] : kShapes) {
    Matrix w(in, out);
    w.randomize(rng, 0.5f);
    const QuantizedMatrix q8 = QuantizedMatrix::quantize(w, QuantMode::Int8);
    EXPECT_EQ(q8.rows(), in);
    EXPECT_EQ(q8.cols(), out);
    const Matrix back = q8.dequantize();
    const std::span<const float> scales = q8.scales();
    ASSERT_EQ(scales.size(), out);
    for (std::size_t j = 0; j < out; ++j) {
      // Symmetric rounding: each element is off by at most half a step of
      // its channel's scale, and the channel max must hit ±127 exactly.
      for (std::size_t i = 0; i < in; ++i) {
        EXPECT_LE(std::fabs(back.row(i)[j] - w.row(i)[j]),
                  0.5f * scales[j] + 1e-7f)
            << in << "x" << out << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(QuantizedMatrix, Fp16RoundTripIsHalfPrecisionExact) {
  Rng rng(22);
  Matrix w(48, 96);
  w.randomize(rng, 0.5f);
  const QuantizedMatrix q16 = QuantizedMatrix::quantize(w, QuantMode::Fp16);
  const Matrix back = q16.dequantize();
  for (std::size_t i = 0; i < w.rows(); ++i) {
    for (std::size_t j = 0; j < w.cols(); ++j) {
      // binary16 keeps 11 significand bits: 2^-11 relative.
      EXPECT_LE(std::fabs(back.row(i)[j] - w.row(i)[j]),
                std::fabs(w.row(i)[j]) * 5e-4f + 1e-7f);
    }
  }
  EXPECT_TRUE(q16.scales().empty());
}

TEST(QuantizedMatrix, MatmulMatchesRowwiseGemv) {
  // Int8 rows run one GEMV each; fp16 runs one GEMM over all five rows,
  // whose tiled rows must give the one-row call's bits.
  Rng rng(23);
  Matrix w(48, 96);
  w.randomize(rng, 0.5f);
  Matrix x(5, 48);
  x.randomize(rng, 1.0f);
  for (const QuantMode mode : {QuantMode::Int8, QuantMode::Fp16}) {
    const QuantizedMatrix q = QuantizedMatrix::quantize(w, mode);
    Matrix out;
    q.matmul(x, out);
    ASSERT_EQ(out.rows(), 5u);
    ASSERT_EQ(out.cols(), 96u);
    std::vector<float> y(96);
    for (std::size_t r = 0; r < x.rows(); ++r) {
      q.gemv(x.row(r), y);
      for (std::size_t j = 0; j < 96; ++j) {
        EXPECT_EQ(out.row(r)[j], y[j])
            << tensor::quant_mode_name(mode) << " row " << r << " col " << j;
      }
    }
  }
}

class QuantAccuracy : public ::testing::TestWithParam<core::BaseModel> {};

TEST_P(QuantAccuracy, LogitErrorBoundedOnEveryPreset) {
  core::HpcGpt fp32 = make_preset(GetParam(), QuantMode::Fp32);
  core::HpcGpt int8 = make_preset(GetParam(), QuantMode::Int8);
  core::HpcGpt fp16 = make_preset(GetParam(), QuantMode::Fp16);
  const std::size_t vocab = fp32.model().config().vocab_size;
  Rng rng(31);
  const auto prompt = random_prompt(rng, 24, vocab);

  nn::DecodeState s32 = fp32.model().new_decode_state();
  nn::DecodeState s8 = int8.model().new_decode_state();
  nn::DecodeState s16 = fp16.model().new_decode_state();
  const std::span<const float> l32 = fp32.model().prefill(s32, prompt);
  const std::span<const float> l8 = int8.model().prefill(s8, prompt);
  const std::span<const float> l16 = fp16.model().prefill(s16, prompt);

  float amax = 0.0f, err8 = 0.0f, err16 = 0.0f;
  for (std::size_t v = 0; v < vocab; ++v) {
    amax = std::max(amax, std::fabs(l32[v]));
    err8 = std::max(err8, std::fabs(l8[v] - l32[v]));
    err16 = std::max(err16, std::fabs(l16[v] - l32[v]));
  }
  ASSERT_GT(amax, 0.0f);
  // int8 carries ~0.4% per-channel rounding through 2 blocks + head;
  // fp16 is ~2^-11 per weight. Bounds are relative to the logit range
  // with generous slack — they catch kernel bugs (wrong scale, swapped
  // layout), not gradual drift.
  EXPECT_LT(err8, 0.10f * amax) << fp32.name() << " int8 max logit err";
  EXPECT_LT(err16, 0.02f * amax) << fp32.name() << " fp16 max logit err";
}

TEST(QuantAgreement, GreedyTokensAgreeAtLeast95Percent) {
  // Per-step decision agreement under teacher forcing: both models see
  // the fp32-chosen context at every step, so one flipped argmax can't
  // cascade and the metric is a true per-decision rate.
  core::HpcGpt fp32 = make_preset(core::BaseModel::Llama, QuantMode::Fp32);
  core::HpcGpt int8 = make_preset(core::BaseModel::Llama, QuantMode::Int8);
  const std::size_t vocab = fp32.model().config().vocab_size;
  Rng rng(41);

  std::size_t total = 0, agreed = 0;
  for (std::size_t trial = 0; trial < 5; ++trial) {
    const auto prompt = random_prompt(rng, 6 + 5 * trial, vocab);
    nn::DecodeState s32 = fp32.model().new_decode_state();
    nn::DecodeState s8 = int8.model().new_decode_state();
    text::TokenId next32 = argmax(fp32.model().prefill(s32, prompt));
    const text::TokenId next8 = argmax(int8.model().prefill(s8, prompt));
    ++total;
    agreed += next8 == next32;
    text::TokenId forced = next32;
    for (std::size_t step = 0; step < 24; ++step) {
      next32 = argmax(fp32.model().decode_step(s32, forced));
      const text::TokenId got8 = argmax(int8.model().decode_step(s8, forced));
      ++total;
      agreed += got8 == next32;
      forced = next32;
    }
  }
  EXPECT_GE(static_cast<double>(agreed), 0.95 * static_cast<double>(total))
      << agreed << "/" << total << " greedy decisions agreed";
}

TEST(QuantLifecycle, MemoryFootprintShrinksAtLeastTwofold) {
  for (const core::BaseModel base :
       {core::BaseModel::Llama, core::BaseModel::Gpt4}) {
    core::HpcGpt fp32 = make_preset(base, QuantMode::Fp32);
    core::HpcGpt fp16 = make_preset(base, QuantMode::Fp16);
    core::HpcGpt int8 = make_preset(base, QuantMode::Int8);
    const double base_bytes =
        static_cast<double>(fp32.model().weight_memory_bytes());
    EXPECT_GE(base_bytes / fp16.model().weight_memory_bytes(), 1.8)
        << fp32.name() << " fp16";
    EXPECT_GE(base_bytes / int8.model().weight_memory_bytes(), 2.0)
        << fp32.name() << " int8";
  }
}

TEST(QuantLifecycle, QuantizedModelIsInferenceOnly) {
  core::HpcGpt model = make_preset(core::BaseModel::Llama, QuantMode::Int8);
  EXPECT_EQ(model.quant_mode(), QuantMode::Int8);

  const std::vector<text::TokenId> ids = {4, 5, 6, 7};
  const std::vector<std::int32_t> targets = {5, 6, 7, 8};
  EXPECT_THROW(model.model().train_step(ids, targets), Error);
  EXPECT_THROW(nn::save_checkpoint(model.model()), Error);
  // Re-quantizing (even to the same mode) and dequantizing are both
  // one-way-door errors: the fp32 weights were freed at quantization.
  EXPECT_THROW(model.set_quant_mode(QuantMode::Int8), Error);
  EXPECT_THROW(model.set_quant_mode(QuantMode::Fp32), Error);
}

TEST(QuantLifecycle, BundleLoadThenQuantizeServes) {
  // The CLI flow: bundles always carry fp32-trained weights, --quant
  // repacks after load. generate() must still produce text and the
  // footprint must match a natively quantized twin's.
  core::HpcGpt model = make_preset(core::BaseModel::Llama, QuantMode::Fp32);
  const std::string blob = model.save_bundle();
  core::HpcGpt loaded = core::HpcGpt::load_bundle(blob);
  const std::size_t fp32_bytes = loaded.model().weight_memory_bytes();
  loaded.set_quant_mode(QuantMode::Int8);
  EXPECT_EQ(loaded.quant_mode(), QuantMode::Int8);
  EXPECT_LT(loaded.model().weight_memory_bytes(), fp32_bytes / 2);
  const std::string answer = loaded.ask("What is OpenMP?", 8);
  EXPECT_FALSE(answer.empty());
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, QuantAccuracy,
    ::testing::Values(core::BaseModel::Llama, core::BaseModel::Llama2,
                      core::BaseModel::Gpt35, core::BaseModel::Gpt4),
    [](const ::testing::TestParamInfo<core::BaseModel>& info) {
      return core::spec_for(info.param).name;
    });

}  // namespace
