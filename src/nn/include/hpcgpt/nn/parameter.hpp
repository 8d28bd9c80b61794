#pragma once

#include <span>
#include <string>
#include <vector>

#include "hpcgpt/tensor/matrix.hpp"

namespace hpcgpt::nn {

/// A trainable tensor: value + gradient accumulator.
///
/// Optimizer state (Adam moments) lives in the optimizer, keyed by a
/// FlatParamView, so frozen parameters cost no extra memory and model
/// replicas (data-parallel training) don't duplicate it.
struct Parameter {
  std::string name;
  tensor::Matrix value;
  tensor::Matrix grad;
  bool trainable = true;

  Parameter() = default;
  Parameter(std::string n, std::size_t rows, std::size_t cols)
      : name(std::move(n)), value(rows, cols), grad(rows, cols) {}

  void zero_grad() { grad.zero(); }
  std::size_t count() const { return value.size(); }
};

/// Non-owning list of parameters, in deterministic registration order.
using ParameterList = std::vector<Parameter*>;

/// Total element count, optionally restricted to trainable parameters.
std::size_t parameter_count(const ParameterList& params,
                            bool trainable_only = false);

/// A flattened view over the *trainable* subset of a ParameterList: one
/// contiguous index space [0, size()) in registration order, with
/// gather/scatter between that space and the per-tensor storage.
///
/// This is the substrate of the data-parallel training engine: worker
/// gradients become plain float arrays that reduce with memcpy-speed
/// loops, and the optimizer runs one fused pass over a single span
/// instead of a per-tensor loop. The element order is registration
/// order, so gathers from structurally identical models (a model and its
/// replicas) line up index-for-index.
class FlatParamView {
 public:
  FlatParamView() = default;
  explicit FlatParamView(const ParameterList& params);

  /// Total trainable element count.
  std::size_t size() const { return size_; }
  /// The trainable parameters, in flattened order.
  const std::vector<Parameter*>& parameters() const { return params_; }

  /// Copies every trainable value into `out` (out.size() == size()).
  void gather_values(std::span<float> out) const;
  /// Copies `in` back into the trainable values.
  void scatter_values(std::span<const float> in) const;
  /// Copies every trainable gradient into `out`.
  void gather_grads(std::span<float> out) const;

  /// True when `other` flattens a structurally identical trainable set
  /// (same element count per slot) — the replica-compatibility check.
  bool same_shape(const FlatParamView& other) const;

 private:
  std::vector<Parameter*> params_;  // trainable only, registration order
  std::size_t size_ = 0;
};

}  // namespace hpcgpt::nn
