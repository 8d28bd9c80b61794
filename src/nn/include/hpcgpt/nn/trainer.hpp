#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hpcgpt/nn/adam.hpp"
#include "hpcgpt/nn/transformer.hpp"
#include "hpcgpt/support/thread_pool.hpp"

namespace hpcgpt::nn {

/// One training example in the form train_step consumes: token ids plus
/// per-position targets (targets[i] is the id expected *at* position i,
/// i.e. already shifted; -1 = ignore).
struct TrainSequence {
  std::vector<text::TokenId> ids;
  std::vector<std::int32_t> targets;
};

/// Greedy sequence packing: walks `sequences` in order and concatenates
/// consecutive examples while the combined length stays within `max_seq`,
/// masking the target at each internal boundary with -1 so the loss never
/// asks the model to predict across examples. Packed steps feed the
/// GEMM at near-context width instead of the short instruction
/// lengths — the batched-train-step half of the throughput story. (Later
/// examples in a pack can attend to earlier ones; accepting that
/// contamination for throughput is the standard SFT-packing tradeoff.)
///
/// Empty sequences are dropped; every input must fit max_seq on its own.
/// Order is preserved, token and (non-boundary) target counts conserved.
std::vector<TrainSequence> pack_sequences(
    std::span<const TrainSequence> sequences, std::size_t max_seq);

/// Data-parallel engine knobs.
struct TrainerOptions {
  AdamConfig adam{};
  /// Data-parallel workers (model replicas). 0 = usable_cores().
  /// Results are independent of this up to float reduction order.
  std::size_t workers = 1;
  /// Sequences accumulated per optimizer step. This is a *global* batch:
  /// the schedule (which sequences share a step, and the 1/batch gradient
  /// averaging) does not depend on the worker count, which is what makes
  /// workers=N reproduce workers=1 to within summation-order noise.
  std::size_t micro_batch = 1;
};

/// Aggregate outcome of one run_epoch call.
struct TrainStats {
  double mean_loss = 0.0;  ///< mean over sequences of per-sequence loss
  std::size_t sequences = 0;         ///< non-empty sequences trained
  std::size_t tokens = 0;            ///< total input tokens fed
  std::size_t target_positions = 0;  ///< positions contributing to loss
  std::size_t optimizer_steps = 0;
  double last_grad_norm = 0.0;  ///< pre-clip, of the final averaged grad
};

/// The data-parallel training engine.
///
/// Each optimizer step shards a micro-batch contiguously across workers;
/// worker 0 runs on the calling thread against the master model, workers
/// 1..W-1 run on a dedicated pool against per-worker replicas, copies of
/// the master (Transformer::replica; a Transformer holds per-instance
/// activation caches, so concurrent train_step on one model would race).
/// Every worker accumulates into its own gradient buffer over a
/// FlatParamView, the buffers reduce with a fixed-order binary tree
/// (deterministic: the sum never depends on thread timing), and a single
/// fused Adam pass updates the flat master values, which are then
/// broadcast back to the replicas. Inside a shard the tensor kernels
/// run inline (ParallelInlineGuard): one replica per core beats
/// re-fanning each GEMM across the global pool.
///
/// Determinism: two runs with identical inputs, options and initial model
/// state produce bitwise-identical weights. workers=N matches workers=1
/// up to float summation order (losses typically agree to ~1e-5).
class Trainer {
 public:
  /// The model is borrowed; it must outlive the trainer.
  Trainer(Transformer& model, TrainerOptions options);
  ~Trainer();

  const TrainerOptions& options() const { return options_; }
  /// Resolved worker count (options.workers with 0 expanded).
  std::size_t workers() const { return workers_; }
  Adam& optimizer() { return optimizer_; }

  /// Trains over `sequences` in order (shuffling is the caller's policy),
  /// one optimizer step per micro_batch. Sequences with empty ids are
  /// skipped, mirroring the over-long-example policy of the SFT encoder.
  TrainStats run_epoch(std::span<const TrainSequence> sequences);

 private:
  void ensure_workers();
  void broadcast_values();

  Transformer& model_;
  TrainerOptions options_;
  std::size_t workers_ = 1;
  Adam optimizer_;

  FlatParamView master_view_;
  std::vector<std::unique_ptr<Transformer>> replicas_;  // workers_ - 1
  std::vector<FlatParamView> replica_views_;
  std::vector<std::vector<float>> worker_grads_;  // one buffer per worker
  std::vector<float> flat_values_;                // step + broadcast buffer
  std::unique_ptr<ThreadPool> pool_;              // workers_ - 1 threads
};

}  // namespace hpcgpt::nn
