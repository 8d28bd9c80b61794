#pragma once

#include <vector>

#include "hpcgpt/nn/transformer.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/text/tokenizer.hpp"

namespace hpcgpt::nn {

/// Decoding options for autoregressive generation.
struct SampleOptions {
  std::size_t max_new_tokens = 48;
  /// 0 → greedy argmax; > 0 → temperature sampling.
  float temperature = 0.0f;
  /// Stop when this token is produced (it is not appended).
  text::TokenId stop_token = text::BpeTokenizer::kEos;
  std::uint64_t seed = 7;
};

/// Generates a continuation of `prompt_ids`. Generation re-runs the full
/// forward per token (no KV cache) — adequate for the short sequences in
/// this repository and keeps the inference path identical to training.
std::vector<text::TokenId> generate(Transformer& model,
                                    std::vector<text::TokenId> prompt_ids,
                                    const SampleOptions& options = {});

/// KV-cached generation: identical results to generate() (token-for-token
/// under greedy decoding and for any fixed sampling seed). The prompt is
/// ingested in one batched GEMM prefill pass, then each emitted token
/// costs one allocation-free O(T·d) decode step instead of a full
/// O(T²·d) forward.
std::vector<text::TokenId> generate_cached(
    const Transformer& model, const std::vector<text::TokenId>& prompt_ids,
    const SampleOptions& options = {});

/// Log-probability the model assigns to `continuation` after `prompt`
/// (sum over continuation tokens). Used for answer scoring / classification.
double continuation_logprob(Transformer& model,
                            const std::vector<text::TokenId>& prompt,
                            const std::vector<text::TokenId>& continuation);

}  // namespace hpcgpt::nn
