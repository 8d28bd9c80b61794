// Steady-state decode and training make no heap allocation. This binary
// replaces the global operator new with a counting one, warms a model's
// page pool and the decode scratch, then counts allocations over a
// window of decode steps: decode_step lane by lane and decode_step_batch
// over all lanes, at 1 and 4 lanes (and 16 for decode_step_batch), for
// fp32 and int8 weights. It also counts one warmed train_step at 37
// tokens (three KV pages) and at 288, the full packing length, steps at
// new, shorter lengths after a 288-token one, and the first steps of a
// fresh model (dense and LoRA) after Transformer::reserve_training.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <initializer_list>
#include <new>
#include <span>
#include <vector>

#include "hpcgpt/core/hpcgpt.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/support/thread_pool.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

}  // namespace

// All out of line, so the compiler does not see malloc() and free()
// through them at a call site and warn about mismatched allocation calls.
[[gnu::noinline]] void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace {

using namespace hpcgpt;

constexpr std::size_t kPromptLen = 64;
constexpr std::size_t kWarmupSteps = 2;
constexpr std::size_t kSteps = 100;

text::TokenId argmax(std::span<const float> logits) {
  return static_cast<text::TokenId>(std::distance(
      logits.begin(), std::max_element(logits.begin(), logits.end())));
}

/// Prefills `lanes` fresh sessions of `m` with 64-token prompts, then
/// decodes greedily — lane by lane through decode_step, or all lanes per
/// round through decode_step_batch. Returns the operator new calls of the
/// kSteps steps that follow kWarmupSteps unmeasured ones (the warm-up
/// sizes the scratch buffers).
std::size_t decode_allocations(const nn::Transformer& m, std::size_t lanes,
                               bool batched) {
  const std::size_t vocab = m.config().vocab_size;
  Rng rng(lanes);
  std::vector<nn::DecodeState> states;
  std::vector<text::TokenId> next(lanes);
  for (std::size_t b = 0; b < lanes; ++b) {
    std::vector<text::TokenId> prompt(kPromptLen);
    for (auto& id : prompt) {
      id = static_cast<text::TokenId>(4 + rng.next_below(vocab - 4));
    }
    states.push_back(m.new_decode_state());
    next[b] = argmax(m.prefill(states.back(), prompt));
  }
  std::vector<nn::DecodeState*> lane_ptrs;
  for (auto& s : states) lane_ptrs.push_back(&s);
  nn::BatchScratch scratch;
  const auto step = [&] {
    if (batched) {
      const tensor::Matrix& logits =
          m.decode_step_batch(lane_ptrs, next, scratch);
      for (std::size_t b = 0; b < lanes; ++b) next[b] = argmax(logits.row(b));
    } else {
      for (std::size_t b = 0; b < lanes; ++b) {
        next[b] = argmax(m.decode_step(states[b], next[b]));
      }
    }
  };
  for (std::size_t i = 0; i < kWarmupSteps; ++i) step();
  g_allocations.store(0);
  g_counting.store(true);
  for (std::size_t i = 0; i < kSteps; ++i) step();
  g_counting.store(false);
  return g_allocations.load();
}

const text::BpeTokenizer& shared_tokenizer() {
  static const text::BpeTokenizer tok = core::build_shared_tokenizer();
  return tok;
}

class DecodeAlloc : public ::testing::TestWithParam<tensor::QuantMode> {
 protected:
  /// Untrained llama_sim in the parameter's weight format, its page pool
  /// warmed by one full run of `lanes` lanes so the measured runs draw
  /// every page from the free list instead of growing the pool.
  core::HpcGpt warm_model(bool batched, std::size_t lanes) const {
    core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
    spec.pretrain_steps = 0;
    spec.quant = GetParam();
    core::HpcGpt model(spec, shared_tokenizer());
    (void)decode_allocations(model.model(), lanes, batched);
    return model;
  }
};

TEST_P(DecodeAlloc, DecodeStepIsAllocationFree) {
  core::HpcGpt model = warm_model(/*batched=*/false, 4);
  for (const std::size_t lanes : {1u, 4u}) {
    EXPECT_EQ(decode_allocations(model.model(), lanes, /*batched=*/false), 0u)
        << lanes << " lane(s)";
  }
}

TEST_P(DecodeAlloc, DecodeStepBatchIsAllocationFree) {
  // Sixteen lanes: fp32 rounds run the same GEMM as rounds of one, and
  // int8 rows still run inline (they fan out to the pool, which
  // allocates, from 32 rows up).
  core::HpcGpt model = warm_model(/*batched=*/true, 16);
  for (const std::size_t lanes : {1u, 4u, 16u}) {
    EXPECT_EQ(decode_allocations(model.model(), lanes, /*batched=*/true), 0u)
        << lanes << " lane(s)";
  }
}

/// A train_step's inputs: `len` random tokens and their next tokens.
struct TrainSample {
  std::vector<text::TokenId> ids;
  std::vector<std::int32_t> targets;
};

TrainSample train_sample(std::size_t vocab, std::size_t len) {
  Rng rng(len);
  TrainSample sample{std::vector<text::TokenId>(len),
                     std::vector<std::int32_t>(len, -1)};
  for (auto& id : sample.ids) {
    id = static_cast<text::TokenId>(4 + rng.next_below(vocab - 4));
  }
  for (std::size_t t = 0; t + 1 < len; ++t) {
    sample.targets[t] = sample.ids[t + 1];
  }
  return sample;
}

/// operator new calls of one train_step at each of `lens`, in order,
/// after kWarmupSteps unmeasured steps at `warm_len` size the training
/// scratch. Runs under the ParallelInlineGuard a trainer shard holds.
std::size_t train_step_allocations(nn::Transformer& m, std::size_t warm_len,
                                   std::initializer_list<std::size_t> lens) {
  ParallelInlineGuard inline_guard;
  const std::size_t vocab = m.config().vocab_size;
  const TrainSample warm = train_sample(vocab, warm_len);
  std::vector<TrainSample> measured;
  for (const std::size_t len : lens) {
    measured.push_back(train_sample(vocab, len));
  }
  for (std::size_t i = 0; i < kWarmupSteps; ++i) {
    m.train_step(warm.ids, warm.targets);
  }
  g_allocations.store(0);
  g_counting.store(true);
  for (const TrainSample& sample : measured) {
    m.train_step(sample.ids, sample.targets);
  }
  g_counting.store(false);
  return g_allocations.load();
}

TEST(TrainStepAlloc, WarmedStepIsAllocationFree) {
  core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
  spec.pretrain_steps = 0;
  core::HpcGpt model(spec, shared_tokenizer());
  // 37 tokens end in a partial third KV page; 288 is max_seq, the length
  // packed fine-tuning trains at.
  for (const std::size_t len : {37u, 288u}) {
    EXPECT_EQ(train_step_allocations(model.model(), len, {len}), 0u)
        << len << " tokens";
  }
  // Packed lengths differ from step to step: once a step at the longest
  // length has sized the caches, steps at new, shorter lengths (and back
  // at the longest) reshape them within their capacity.
  EXPECT_EQ(train_step_allocations(model.model(), 288, {271, 150, 37, 288}),
            0u)
      << "new lengths after a 288-token step";
}

/// operator new calls of one train_step at each of `lens`, in order, on
/// a model that has run no step: Transformer::reserve_training(max_seq)
/// alone sizes its caches, as the trainer does for each worker.
std::size_t reserved_step_allocations(
    nn::Transformer& m, std::initializer_list<std::size_t> lens) {
  ParallelInlineGuard inline_guard;
  std::vector<TrainSample> measured;
  for (const std::size_t len : lens) {
    measured.push_back(train_sample(m.config().vocab_size, len));
  }
  m.reserve_training(m.config().max_seq);
  // softmax_rows reaches the process-wide pool, which starts once per
  // process on first use, whatever the model.
  (void)ThreadPool::global();
  g_allocations.store(0);
  g_counting.store(true);
  for (const TrainSample& sample : measured) {
    m.train_step(sample.ids, sample.targets);
  }
  g_counting.store(false);
  return g_allocations.load();
}

TEST(TrainStepAlloc, ReservedFreshModelStepsAreAllocationFree) {
  // The LoRA half covers the adapters' forward and backward scratch,
  // the path of Table 5's PEFT fine-tunes.
  for (const bool lora : {false, true}) {
    core::ModelOptions spec = core::spec_for(core::BaseModel::Llama);
    spec.pretrain_steps = 0;
    core::HpcGpt model(spec, shared_tokenizer());
    if (lora) model.model().attach_lora(16, 32.0f, /*train_lora_only=*/true);
    EXPECT_EQ(reserved_step_allocations(model.model(), {37, 150, 271, 288}),
              0u)
        << (lora ? "LoRA" : "dense");
  }
}

INSTANTIATE_TEST_SUITE_P(
    Quant, DecodeAlloc,
    ::testing::Values(tensor::QuantMode::Fp32, tensor::QuantMode::Int8),
    [](const ::testing::TestParamInfo<tensor::QuantMode>& info) {
      return std::string(tensor::quant_mode_name(info.param));
    });

}  // namespace
