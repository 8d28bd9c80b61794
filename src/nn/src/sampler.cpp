#include "hpcgpt/nn/sampler.hpp"

#include <algorithm>
#include <cmath>

#include "hpcgpt/support/error.hpp"
#include "hpcgpt/tensor/matrix.hpp"

namespace hpcgpt::nn {

namespace {

text::TokenId pick_token(std::span<const float> logits, float temperature,
                         Rng& rng) {
  if (temperature <= 0.0f) {
    return static_cast<text::TokenId>(std::distance(
        logits.begin(), std::max_element(logits.begin(), logits.end())));
  }
  // Temperature softmax sampling.
  float max_logit = *std::max_element(logits.begin(), logits.end());
  std::vector<float> probs(logits.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    probs[i] = std::exp((logits[i] - max_logit) / temperature);
    sum += probs[i];
  }
  double r = rng.next_double() * sum;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    r -= probs[i];
    if (r <= 0.0) return static_cast<text::TokenId>(i);
  }
  return static_cast<text::TokenId>(probs.size() - 1);
}

}  // namespace

std::vector<text::TokenId> generate(Transformer& model,
                                    std::vector<text::TokenId> prompt_ids,
                                    const SampleOptions& options) {
  require(!prompt_ids.empty(), "generate: empty prompt");
  Rng rng(options.seed);
  const std::size_t prompt_len = prompt_ids.size();
  for (std::size_t step = 0; step < options.max_new_tokens; ++step) {
    if (prompt_ids.size() >= model.config().max_seq) break;
    const tensor::Matrix all_logits = model.logits(prompt_ids);
    const auto last = all_logits.row(all_logits.rows() - 1);
    const text::TokenId next = pick_token(last, options.temperature, rng);
    if (next == options.stop_token) break;
    prompt_ids.push_back(next);
  }
  return {prompt_ids.begin() + static_cast<std::ptrdiff_t>(prompt_len),
          prompt_ids.end()};
}

std::vector<text::TokenId> generate_cached(
    const Transformer& model, const std::vector<text::TokenId>& prompt_ids,
    const SampleOptions& options) {
  require(!prompt_ids.empty(), "generate_cached: empty prompt");
  Rng rng(options.seed);
  DecodeState state = model.new_decode_state();
  // Prefill: the whole prompt goes through the batched GEMM path in one
  // pass instead of one decode_step per prompt token.
  std::span<const float> last = model.prefill(state, prompt_ids);
  std::vector<text::TokenId> out;
  for (std::size_t step = 0; step < options.max_new_tokens; ++step) {
    if (state.length() >= model.config().max_seq) break;
    const text::TokenId next = pick_token(last, options.temperature, rng);
    if (next == options.stop_token) break;
    out.push_back(next);
    if (out.size() == options.max_new_tokens ||
        state.length() >= model.config().max_seq) {
      break;
    }
    last = model.decode_step(state, next);
  }
  return out;
}

double continuation_logprob(Transformer& model,
                            const std::vector<text::TokenId>& prompt,
                            const std::vector<text::TokenId>& continuation) {
  require(!prompt.empty(), "continuation_logprob: empty prompt");
  require(!continuation.empty(), "continuation_logprob: empty continuation");
  std::vector<text::TokenId> ids = prompt;
  ids.insert(ids.end(), continuation.begin(), continuation.end());
  require(ids.size() <= model.config().max_seq,
          "continuation_logprob: sequence exceeds context");
  tensor::Matrix logit_mat = model.logits(ids);
  tensor::softmax_rows(logit_mat);
  double logprob = 0.0;
  // Position prompt.size()-1 predicts continuation[0], etc.
  for (std::size_t i = 0; i < continuation.size(); ++i) {
    const std::size_t pos = prompt.size() - 1 + i;
    const auto target = static_cast<std::size_t>(continuation[i]);
    logprob += std::log(std::max(logit_mat.at(pos, target), 1e-12f));
  }
  return logprob;
}

}  // namespace hpcgpt::nn
