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
  /// Data-parallel workers (model replicas). 0 = usable_cores(). The
  /// trained weights do not depend on it (see Trainer). A step never has
  /// more than micro_batch sequences, so at most that many workers run.
  std::size_t workers = 1;
  /// Sequences accumulated per optimizer step. This is a *global* batch:
  /// the schedule (which sequences share a step, and the 1/batch gradient
  /// averaging) does not depend on the worker count. Each sequence of a
  /// step gets its own flat gradient slot of every trainable float, so
  /// the trainer holds micro_batch × trainable × 4 bytes of slots: 3.5 MB
  /// at 8 × 109,296 (the default architecture).
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
/// Each optimizer step orders its sequences longest first (ties by epoch
/// position), and its workers claim them one at a time from a shared
/// atomic index, so a worker that drew short sequences claims more of
/// them instead of idling while the longest pair finishes. Worker 0 runs
/// on the calling thread against the master model, workers 1..W-1 on a
/// dedicated pool against per-worker replicas, copies of the master
/// (Transformer::replica; a Transformer holds per-instance activation
/// caches, so concurrent train_step on one model would race). A claim
/// computes its sequence's gradient from zero and gathers it over a
/// FlatParamView into that sequence's own slot. The slots reduce with a
/// fixed binary tree whose pairing depends only on the step's sequence
/// count, run in contiguous chunks of the element range on the step's
/// workers; a single fused Adam pass then updates the flat master
/// values. A replica copies them in before its next claim. The tensor
/// kernels run on their worker's thread, so each replica keeps its own
/// core. Before its first claim of an epoch, each worker sizes its
/// model's training caches for the epoch's longest sequence on its own
/// thread (Transformer::reserve_training), so no step allocates.
///
/// Determinism: neither the worker that ran a sequence nor the timing
/// can change a slot or the sum, so the weights and losses are bitwise
/// identical for every worker count and run to run. A step of one
/// sequence hands its gradient to Adam unscaled, exactly the classic
/// one-sequence-per-step loop.
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
  /// A worker's model other than the master, and whether its trainable
  /// values lag the master's.
  struct Replica {
    std::unique_ptr<Transformer> model;
    FlatParamView view;
    bool stale = false;
  };

  void ensure_workers();

  Transformer& model_;
  TrainerOptions options_;
  std::size_t workers_ = 1;
  Adam optimizer_;

  FlatParamView master_view_;
  std::vector<Replica> replicas_;          // min(workers_, micro_batch) - 1
  std::vector<std::vector<float>> slots_;  // one gradient per step sequence
  std::vector<float> flat_values_;         // the master's trainable values
  std::unique_ptr<ThreadPool> pool_;       // one thread per replica
};

}  // namespace hpcgpt::nn
