#pragma once

#include <optional>
#include <string>

#include "hpcgpt/nn/parameter.hpp"
#include "hpcgpt/tensor/matrix.hpp"
#include "hpcgpt/tensor/quant.hpp"

namespace hpcgpt::nn {

/// Fully-connected layer y = x·W with optional LoRA adapter.
///
/// With LoRA enabled the layer computes
///     y = x·W + (alpha/r) · (x·A)·B
/// where W (in×out) can be frozen and only A (in×r, Gaussian-init) and
/// B (r×out, zero-init — so the adapter starts as identity) receive
/// gradients. This is exactly the low-rank adaptation of Hu et al. that
/// the paper applies during supervised fine-tuning (§4.1).
class Linear {
 public:
  Linear() = default;
  Linear(std::string name, std::size_t in, std::size_t out);

  /// Gaussian-initializes W with `stddev`.
  void init(Rng& rng, float stddev);

  /// Attaches a LoRA adapter of rank `rank`; `freeze_base` stops gradient
  /// flow into W (the PEFT configuration).
  void attach_lora(std::size_t rank, float alpha, bool freeze_base,
                   Rng& rng);

  /// Forward pass. Caches activations needed by backward().
  void forward(const tensor::Matrix& x, tensor::Matrix& y);

  /// Backward pass: accumulates parameter gradients and writes dL/dx.
  /// Must be called after forward() with the matching shapes.
  void backward(const tensor::Matrix& dy, tensor::Matrix& dx);

  /// Sizes the forward cache and the LoRA scratch for `rows` input rows,
  /// and the calling thread's transpose buffer for backward's matmul_nt,
  /// so forward/backward at up to `rows` rows allocate nothing.
  void reserve_training(std::size_t rows);

  /// Folds the LoRA product into W (for cheap inference after training).
  void merge_lora();

  /// A copy of the layer's weights, trainable flags and LoRA adapter,
  /// without its activation caches.
  Linear replica() const;

  /// Stateless application y = x·W (+ LoRA term) over all rows of `x`
  /// via the GEMM — the projection of the inference forward. It neither
  /// reads nor writes the training caches, so it is safe to call
  /// concurrently from many threads. Resizes `y` only when its shape
  /// differs.
  void apply_rows(const tensor::Matrix& x, tensor::Matrix& y) const;

  void collect_parameters(ParameterList& out);

  /// Repacks W into `mode` storage (int8 per-output-channel or fp16) and
  /// frees the fp32 weight — the layer becomes inference-only:
  /// apply_rows and forward route through the quantized kernels;
  /// backward throws. LoRA must be merged first (merge_lora()), and a
  /// layer can only be quantized once. `mode == Fp32` is a no-op.
  void quantize(tensor::QuantMode mode);

  tensor::QuantMode quant_mode() const { return qmode_; }
  bool quantized() const { return qmode_ != tensor::QuantMode::Fp32; }

  /// Bytes of weight storage in the current mode (fp32 matrix or packed
  /// quantized form; LoRA factors included when attached).
  std::size_t weight_memory_bytes() const;

  std::size_t in_features() const {
    return quantized() ? qweight_.rows() : weight_.value.rows();
  }
  std::size_t out_features() const {
    return quantized() ? qweight_.cols() : weight_.value.cols();
  }
  bool has_lora() const { return lora_rank_ > 0; }
  const Parameter& weight() const { return weight_; }

  /// Packed quantized weights — meaningful only when quantized(). The
  /// inference forward uses these directly (matmul_prequant) to share one
  /// activation quantization across sibling layers consuming the same
  /// normalized rows.
  const tensor::QuantizedMatrix& quantized_weights() const {
    return qweight_;
  }

 private:
  Parameter weight_;
  Parameter lora_a_;
  Parameter lora_b_;
  std::size_t lora_rank_ = 0;
  float lora_scale_ = 0.0f;
  tensor::QuantizedMatrix qweight_;
  tensor::QuantMode qmode_ = tensor::QuantMode::Fp32;

  // forward() caches (single in-flight activation; the training loop is
  // strictly forward-then-backward per sequence).
  tensor::Matrix cached_x_;
  tensor::Matrix cached_xa_;
  // LoRA scratch, reshaped within capacity every step like the caches.
  tensor::Matrix lora_out_;  // forward: (x·A)·B     (rows × out)
  tensor::Matrix dy_bt_;     // backward: dy·Bᵀ      (rows × rank)
  tensor::Matrix db_;        // backward: (x·A)ᵀ·dy  (rank × out)
};

}  // namespace hpcgpt::nn
