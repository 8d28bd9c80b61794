#pragma once

#include <cstddef>

#include "hpcgpt/tensor/quant.hpp"

namespace hpcgpt::nn {

/// Hyper-parameters of a decoder-only transformer.
///
/// The repository's model zoo (hpcgpt::core::ModelRegistry) instantiates
/// this at several sizes to stand in for the paper's base models
/// (LLaMA-13B, LLaMA2-13B, GPT-3.5, GPT-4) at laptop scale.
struct TransformerConfig {
  std::size_t vocab_size = 512;
  std::size_t d_model = 96;     ///< embedding width; divisible by n_heads
  std::size_t n_heads = 4;
  std::size_t n_layers = 2;
  std::size_t d_ff = 192;       ///< SwiGLU hidden width
  std::size_t max_seq = 160;    ///< positional table length = context limit

  /// LoRA adaptation (paper §4.1). rank 0 disables the adapters.
  std::size_t lora_rank = 0;
  float lora_alpha = 16.0f;

  /// When true, base weights are frozen and only LoRA matrices train —
  /// the PEFT configuration the paper uses for fine-tuning.
  bool train_lora_only = false;

  /// Weight storage for inference (Transformer::set_quant_mode applies
  /// it post-construction and keeps this in sync). Runtime state, not
  /// architecture: checkpoints always carry fp32-trained weights and do
  /// not serialize this field.
  tensor::QuantMode quant = tensor::QuantMode::Fp32;

  std::size_t head_dim() const { return d_model / n_heads; }

  /// Throws InvalidArgument unless every dimension is >= 1, n_heads
  /// divides d_model and weight_count() fits a size_t. Transformer's
  /// constructor runs it before allocating anything, and load_checkpoint
  /// runs it on the untrusted header.
  void validate() const;
  /// Weight elements the config implies: embeddings, blocks (with their
  /// LoRA adapters when lora_rank > 0), final norm and head. Throws
  /// InvalidArgument when the count overflows.
  std::size_t weight_count() const;
};

}  // namespace hpcgpt::nn
