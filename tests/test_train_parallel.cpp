#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "hpcgpt/nn/trainer.hpp"
#include "hpcgpt/support/thread_pool.hpp"
#include "hpcgpt/support/timer.hpp"

// Concurrency smoke for the data-parallel training engine. Carries the
// perf-smoke label so the sanitizer CI lane runs it:
//   cmake -B build-tsan -S . -DHPCGPT_SANITIZE=thread
//   cmake --build build-tsan -j && ctest --test-dir build-tsan -L perf-smoke
// The trainer spawns its own worker threads (not the global pool), so the
// TSan run exercises real cross-thread train steps + gradient reduction
// even on a single-core runner.

namespace hpcgpt::nn {
namespace {

using text::TokenId;

TransformerConfig smoke_config() {
  TransformerConfig c;
  c.vocab_size = 32;
  c.d_model = 16;
  c.n_heads = 2;
  c.n_layers = 2;
  c.d_ff = 32;
  c.max_seq = 24;
  return c;
}

std::vector<TrainSequence> smoke_sequences(std::size_t count,
                                           std::size_t length) {
  std::vector<TrainSequence> out;
  for (std::size_t k = 0; k < count; ++k) {
    TrainSequence s;
    for (std::size_t i = 0; i < length; ++i) {
      s.ids.push_back(static_cast<TokenId>(1 + (3 * k + i) % 30));
    }
    s.targets.assign(length, -1);
    for (std::size_t i = 0; i + 1 < length; ++i) {
      s.targets[i] = static_cast<std::int32_t>(s.ids[i + 1]);
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(TrainParallel, ConcurrentWorkersTrainCleanly) {
  // 4 workers on micro-batches of 8: every optimizer step runs 4
  // concurrent train_steps on distinct replicas plus the tree reduce —
  // the access pattern the TSan lane is here to vet.
  const auto data = smoke_sequences(16, 12);
  Transformer model(smoke_config(), 5);
  TrainerOptions topts;
  topts.workers = 4;
  topts.micro_batch = 8;
  Trainer trainer(model, topts);

  const TrainStats first = trainer.run_epoch(data);
  EXPECT_EQ(first.sequences, 16u);
  EXPECT_EQ(first.optimizer_steps, 2u);
  EXPECT_TRUE(std::isfinite(first.mean_loss));
  EXPECT_GT(first.last_grad_norm, 0.0);

  TrainStats last = first;
  for (int epoch = 0; epoch < 5; ++epoch) last = trainer.run_epoch(data);
  EXPECT_LT(last.mean_loss, first.mean_loss);
}

TEST(TrainParallel, ThroughputAtLeastSequential) {
  const std::size_t cores = usable_cores();
  if (cores < 2) {
    GTEST_SKIP() << "single-core runner: data parallelism cannot win here";
  }
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "sanitizer build: timing guard is not meaningful";
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  GTEST_SKIP() << "sanitizer build: timing guard is not meaningful";
#endif
#endif

  const auto data = smoke_sequences(24, 20);
  auto tokens_per_second = [&](std::size_t workers) {
    Transformer model(smoke_config(), 5);
    TrainerOptions topts;
    topts.workers = workers;
    topts.micro_batch = workers == 1 ? 1 : workers;
    Trainer trainer(model, topts);
    trainer.run_epoch(data);  // warm up caches + replicas
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      Timer timer;
      const TrainStats stats = trainer.run_epoch(data);
      best = std::max(
          best, static_cast<double>(stats.tokens) / timer.seconds());
    }
    return best;
  };

  const double seq = tokens_per_second(1);
  const double par = tokens_per_second(std::min<std::size_t>(cores, 4));
  EXPECT_GE(par, seq) << "parallel " << par << " tok/s vs sequential "
                      << seq << " tok/s";
}

}  // namespace
}  // namespace hpcgpt::nn
