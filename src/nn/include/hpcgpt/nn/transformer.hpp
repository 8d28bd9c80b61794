#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hpcgpt/nn/config.hpp"
#include "hpcgpt/nn/kv_cache.hpp"
#include "hpcgpt/nn/linear.hpp"
#include "hpcgpt/nn/parameter.hpp"
#include "hpcgpt/text/tokenizer.hpp"

namespace hpcgpt::nn {

/// Work buffers of the inference forward (TransformerBlock::infer), the
/// only inference scratch type. Row r of every matrix belongs to row r
/// of the call: a lane of a decode round, or a position of a prompt.
/// ensure() sizes the buffers the forward reads row by row; the GEMM
/// outputs size themselves on first use. Nothing reallocates while the
/// row count stays the same, so steady-state decode makes no heap
/// allocation (test_decode_alloc, up to 16 lanes; int8 rows fan out to
/// the pool, which allocates, from 32 rows up). Three owners: the
/// server keeps one for its decode rounds, each DecodeState one for its
/// batch-of-one decode_step calls, and prefill one per call.
struct BatchScratch {
  tensor::Matrix x;       // residual stream        (rows × d_model)
  tensor::Matrix normed;  // rmsnorm output         (rows × d_model)
  tensor::Matrix q;       // query rows             (rows × d_model)
  tensor::Matrix k_new;   // new key rows           (rows × d_model)
  tensor::Matrix v_new;   // new value rows         (rows × d_model)
  tensor::Matrix attn;    // attention output       (rows × d_model)
  tensor::Matrix proj;    // wo/w_down output       (rows × d_model)
  tensor::Matrix gate;    // SwiGLU gate lanes      (rows × d_ff)
  tensor::Matrix up;      // SwiGLU up lanes        (rows × d_ff)
  tensor::Matrix logits;  // head output            (rows × vocab)
  std::vector<float> probs;  // attention weights, one tile of rows at a time
  // int8 models: each normed row quantized once, shared by the sibling
  // projections that read it (wq/wk/wv, then gate/up).
  std::vector<std::int8_t> qx;   // rows × padded d_model
  std::vector<float> qx_scale;   // one dequantization scale per row

  void ensure(const TransformerConfig& config, std::size_t rows);
};

/// Decoding session state over the block-paged KV cache: per-layer page
/// tables (the KvBlockTable indirection — position s of layer l lives in
/// slot s % kPageSize of the table's page s / kPageSize), a shared
/// KvPagePool the pages come from, and the BatchScratch its batch-of-one
/// decode_step calls run on. That scratch is sized on first use, so a
/// served lane, which decodes on the server's scratch, only ever holds
/// its prefill's last row there (the normed row and its logits).
///
/// Pages are acquired lazily as positions are appended (prepare_append),
/// released on destruction, and may be *shared* with other sessions
/// through adopt_prefix() — shared pages (refcount > 1) are immutable;
/// the first append into a shared tail page forks a private copy
/// (copy-on-write). Sessions are move-only.
class DecodeState {
 public:
  DecodeState(const TransformerConfig& config,
              std::shared_ptr<KvPagePool> pool);
  ~DecodeState();

  DecodeState(const DecodeState&) = delete;
  DecodeState& operator=(const DecodeState&) = delete;
  DecodeState(DecodeState&& other) noexcept;
  DecodeState& operator=(DecodeState&& other) noexcept;

  std::size_t length() const { return length_; }
  KvPagePool& pool() { return *pool_; }

  /// Page-id table of one layer (one id per allocated page, in position
  /// order) — what the prefix cache shares between sessions.
  std::span<const std::uint32_t> layer_pages(std::size_t layer) const {
    return tables_[layer];
  }
  std::size_t pages_held() const;

  /// Adopts an already-computed prefix: retains pages[l][c] as chunk c of
  /// layer l and sets length() to `tokens`. Only valid on an empty
  /// session. The final page may be partially filled (tokens % kPageSize
  /// ≠ 0); the first append then copy-on-writes it.
  void adopt_prefix(const std::vector<std::vector<std::uint32_t>>& pages,
                    std::size_t tokens);

  /// Hands the session `n` pages of reservation credit (admission
  /// control): subsequent page allocations draw on the credit via
  /// KvPagePool::allocate_reserved; unused credit is returned on
  /// destruction.
  void set_reserved_pages(std::size_t n);
  std::size_t reserved_pages() const { return reserved_; }

  /// Ensures positions [length(), length() + count) are writable in
  /// every layer: forks shared tail pages (COW) and allocates missing
  /// ones. Called by the decode/prefill paths; public so schedulers can
  /// front-load allocation failures before touching the model.
  void prepare_append(std::size_t count);

 private:
  friend class Transformer;
  friend class TransformerBlock;

  std::uint32_t acquire_page();
  void release_all();

  std::shared_ptr<KvPagePool> pool_;
  std::size_t n_layers_ = 0;
  std::vector<std::vector<std::uint32_t>> tables_;  // [layer][page index]
  std::vector<std::vector<float*>> page_ptrs_;      // cached data(table[i])
  BatchScratch scratch_;
  std::size_t length_ = 0;
  std::size_t reserved_ = 0;
};

/// One decoder block: pre-norm causal multi-head attention + SwiGLU MLP,
/// both with residual connections (the LLaMA block structure).
class TransformerBlock {
 public:
  TransformerBlock() = default;
  TransformerBlock(const TransformerConfig& config, std::size_t index);

  void init(Rng& rng);
  void attach_lora(const TransformerConfig& config, Rng& rng);
  void merge_lora();
  void collect_parameters(ParameterList& out);

  /// A copy of the block's configuration and parameters (values,
  /// trainable flags, LoRA adapters), without its activation caches.
  std::unique_ptr<TransformerBlock> replica() const;

  /// Quantizes all seven projections to `mode` (see Linear::quantize);
  /// the rmsnorm gains stay fp32 (they are d_model-sized vectors).
  void quantize(tensor::QuantMode mode);
  /// Bytes of weight storage in the current mode.
  std::size_t weight_memory_bytes() const;

  /// x is (T × d_model); transformed in place.
  void forward(tensor::Matrix& x);

  /// dx is dL/d(output), replaced by dL/d(input).
  void backward(tensor::Matrix& dx);

  /// Sizes every forward cache and training scratch for `tokens` rows
  /// (see Transformer::reserve_training).
  void reserve_training(std::size_t tokens);

  /// The inference forward: transforms the residual-stream rows of `x`
  /// in place. The rows are one segment per session — rows
  /// [b·n, (b+1)·n), n = x.rows() / states.size(), are positions
  /// [len, len + n) of states[b], len = states[b]->length() — so a
  /// prompt is one segment of T rows and a decode round is B segments of
  /// one row. Every projection is one GEMM over all rows of the call
  /// (the cross-request batching that streams each weight once per
  /// round); each segment scatters its K/V rows into its session's pages
  /// of layer `layer` (prepared by prepare_append), then attends over its
  /// own horizon. Const and cache-free: concurrent calls on distinct
  /// sessions and scratches may share the block.
  void infer(tensor::Matrix& x, std::span<DecodeState* const> states,
             std::size_t layer, BatchScratch& scratch) const;

 private:
  TransformerConfig config_{};

  Parameter norm1_gain_;
  Linear wq_, wk_, wv_, wo_;
  Parameter norm2_gain_;
  Linear w_gate_, w_up_, w_down_;  // SwiGLU: down(silu(gate(x)) * up(x))

  // ---- forward caches (one in-flight sequence) ----
  tensor::Matrix in1_, normed1_;
  std::vector<float> inv_rms1_;
  tensor::Matrix q_, k_, v_;
  // The sequence's K/V in KvPagePool's page layout, ⌈T/16⌉ pages that
  // the attention kernels read through kv_pages_.
  std::vector<float> kv_buf_;
  std::vector<float*> kv_pages_;
  // Softmax numerators e of each causal row, row-major (n_heads·T) × T:
  // row h·T + t holds head h's e[0..t]; backward normalizes p = e / Σe.
  std::vector<float> probs_;
  tensor::Matrix attn_concat_;
  tensor::Matrix in2_, normed2_;
  std::vector<float> inv_rms2_;
  tensor::Matrix gate_pre_, up_, swiglu_;

  // ---- training scratch (BatchScratch-style reuse) ----
  // forward/backward temporaries that keep their storage across train
  // steps. Packed lengths change from step to step, so every cache is
  // reshaped within its capacity (Matrix::resize): after
  // reserve_training(T), a step of up to T tokens makes no allocation.
  tensor::Matrix attn_out_, mlp_out_;                 // forward
  tensor::Matrix d_swiglu_, d_gate_pre_, d_up_;       // MLP backward
  tensor::Matrix d_normed_sum_, d_normed_tmp_;        // Linear backward dx
  tensor::Matrix d_resid_;                            // rmsnorm backward dx
  tensor::Matrix d_attn_concat_, dq_, dk_, dv_;       // attention backward
  std::vector<float> dkv_buf_;                        // dK/dV, page layout
  std::vector<float*> dkv_pages_;
  std::vector<float> dprobs_;                         // one tile of rows
};

/// Result of a training forward+backward step on one sequence.
struct LossResult {
  double loss = 0.0;          ///< mean cross-entropy over counted positions
  std::size_t positions = 0;  ///< number of positions contributing
};

/// Decoder-only GPT-style language model with explicit backprop.
///
/// This is the trainable substrate standing in for the paper's LLaMA base
/// models. It supports full fine-tuning and LoRA/PEFT fine-tuning, fp16
/// checkpointing (see checkpoint.hpp) and autoregressive sampling (see
/// sampler.hpp).
class Transformer {
 public:
  explicit Transformer(const TransformerConfig& config, std::uint64_t seed = 1);

  const TransformerConfig& config() const { return config_; }

  /// All parameters in deterministic order (for the optimizer/checkpoint).
  ParameterList parameters();

  /// A data-parallel training replica: this model's configuration and
  /// parameters (values, trainable flags, LoRA adapters) copied bitwise,
  /// with its own empty caches and page pool. Draws no random numbers.
  std::unique_ptr<Transformer> replica() const;

  /// Attaches LoRA adapters per config_.lora_rank to the attention and MLP
  /// projections; freezes base weights when config_.train_lora_only.
  void attach_lora();

  /// Convenience: sets the LoRA hyper-parameters and attaches in one call —
  /// the PEFT workflow of pre-training dense, then adapting (paper §4.1).
  void attach_lora(std::size_t rank, float alpha, bool train_lora_only);
  /// Folds adapters into base weights.
  void merge_lora();

  /// Switches the model to quantized inference: every projection (all
  /// blocks + head) is repacked to `mode` storage (int8 per-channel or
  /// fp16) and the fp32 copies are freed; embeddings move to fp16 row
  /// tables in both modes (they are lookups, not matvecs). One-way and
  /// inference-only afterwards — train_step throws, checkpoints must be
  /// saved from the fp32 model, and LoRA adapters (if any) are merged
  /// first. Decode/prefill/serve paths dispatch through the active
  /// tensor::kernels tier automatically. `Fp32` is a no-op on an
  /// unquantized model.
  void set_quant_mode(tensor::QuantMode mode);
  tensor::QuantMode quant_mode() const { return quant_mode_; }

  /// Bytes of weight storage in the current mode (the per-preset memory
  /// footprint metric: fp32 vs fp16 vs int8).
  std::size_t weight_memory_bytes() const;

  /// Logits for each position of `ids` (len × vocab). Pure inference —
  /// does not populate training caches.
  tensor::Matrix logits(const std::vector<text::TokenId>& ids);

  /// Creates an empty incremental-decoding session on the model's own
  /// growable page pool (standalone sampling/tests: allocation never
  /// fails, pages are recycled across sessions).
  DecodeState new_decode_state() const;

  /// Creates a session on an external pool — the serving path, where one
  /// budget-capped pool is shared by all lanes and the prefix cache.
  DecodeState new_decode_state(std::shared_ptr<KvPagePool> pool) const;

  /// The model's default (growable) page pool.
  const std::shared_ptr<KvPagePool>& page_pool() const { return pool_; }

  /// Feeds one token through the KV-cached path and returns the logits of
  /// the new position (vocab-sized): decode_step_batch over the batch of
  /// one {&state}, on the session's own scratch. Equivalent to
  /// logits(prefix).row(last) but O(T·d) per call. The returned span
  /// points into that scratch: it stays valid until the next
  /// decode_step/prefill on the same state, and no allocation happens in
  /// steady state.
  std::span<const float> decode_step(DecodeState& state,
                                     text::TokenId id) const;

  /// Batched prompt ingestion (the prefill half of the inference engine):
  /// runs all of `ids` through the block forward as one segment, writes
  /// every K/V row into the session caches and returns the logits of the
  /// last position (same lifetime rules as decode_step). Equivalent to
  /// calling decode_step per token, at GEMM rather than GEMV arithmetic
  /// intensity. The prompt-sized activations live for the call only.
  /// Thread-safe across states: the model is only read.
  std::span<const float> prefill(DecodeState& state,
                                 std::span<const text::TokenId> ids) const;

  /// One decode step for a batch of independent sessions (the continuous-
  /// batching inner loop): feeds ids[b] through states[b] for all b in one
  /// pass, with every Linear running as a row-batched GEMM across lanes,
  /// and returns the (batch × vocab) logits — row b belongs to lane b,
  /// valid until the next call with the same scratch. States must be
  /// distinct sessions of this model. Thread-safe w.r.t. the model (read
  /// only). Row b equals decode_step(states[b], ids[b]) bit for bit at
  /// any lane count, in fp32, int8 and fp16.
  const tensor::Matrix& decode_step_batch(
      std::span<DecodeState* const> states,
      std::span<const text::TokenId> ids, BatchScratch& scratch) const;

  /// Training step on one sequence: forward, cross-entropy against
  /// `targets` (target[i] is the id expected *at* position i, i.e. already
  /// shifted; -1 = ignore), backward accumulating into parameter grads.
  LossResult train_step(const std::vector<text::TokenId>& ids,
                        const std::vector<std::int32_t>& targets);

  /// Sizes every training cache and scratch buffer — the blocks' (K/V
  /// and dK/dV pages, the n_heads·tokens² softmax numerators), every
  /// Linear's (LoRA scratch included) and the head's and logits' — for
  /// sequences of up to `tokens`, and the calling thread's GEMM transpose
  /// buffer, so no train_step of up to `tokens` tokens on this thread
  /// allocates. Without it the buffers grow with the longest step seen
  /// so far. The trainer calls it on each worker's thread before that
  /// worker's first step of an epoch. Requires fp32 weights.
  void reserve_training(std::size_t tokens);

  /// Evaluation loss (no gradients).
  double eval_loss(const std::vector<text::TokenId>& ids,
                   const std::vector<std::int32_t>& targets);

  void zero_grad();

 private:
  /// Writes the token + position embeddings of `ids` into `x`.
  void embed(const std::vector<text::TokenId>& ids, tensor::Matrix& x) const;
  /// Runs the training forward into the hidden_in_/hidden_out_ caches
  /// and returns hidden_out_.
  const tensor::Matrix& forward_hidden(const std::vector<text::TokenId>& ids);
  /// out = tok_emb[id] + pos_emb[pos], reading fp32 or fp16 storage
  /// depending on quant_mode_.
  void add_embed_row(text::TokenId id, std::size_t pos,
                     std::span<float> out) const;

  struct ReplicaTag {};
  /// replica()'s constructor.
  Transformer(const Transformer& master, ReplicaTag);

  TransformerConfig config_;
  Rng init_rng_;
  tensor::QuantMode quant_mode_ = tensor::QuantMode::Fp32;
  /// Default growable page pool for new_decode_state(); shared_ptr so
  /// sessions can outlive neither it nor an external serving pool.
  std::shared_ptr<KvPagePool> pool_;

  Parameter tok_emb_;   // vocab × d
  Parameter pos_emb_;   // max_seq × d
  // Quantized-mode embedding tables (fp16 rows; replace the fp32 values).
  std::vector<tensor::Half> tok_emb_h_;
  std::vector<tensor::Half> pos_emb_h_;
  std::vector<std::unique_ptr<TransformerBlock>> blocks_;
  Parameter final_gain_;
  Linear head_;         // d × vocab

  // training caches
  tensor::Matrix hidden_in_;   // residual stream; pre-final-norm at the end
  tensor::Matrix hidden_out_;  // post-final-norm activations
  std::vector<float> final_inv_rms_;
  // training scratch, reused across steps like the block-level buffers
  tensor::Matrix logit_mat_, dlogits_, d_hidden_out_, dx_;
};

}  // namespace hpcgpt::nn
