#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/tensor/half.hpp"

namespace hpcgpt::tensor {

/// Dense row-major float32 matrix — the single tensor type of the
/// repository. Vectors are 1×n or n×1 matrices; batched sequence
/// activations are (batch*time)×features.
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, float fill = 0.0f);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  float at(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  /// Row `r` as a contiguous span.
  std::span<float> row(std::size_t r) { return {data_.data() + r * cols_, cols_}; }
  std::span<const float> row(std::size_t r) const {
    return {data_.data() + r * cols_, cols_};
  }

  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }
  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }

  /// Reshapes to rows×cols within the storage's capacity: shrinking, and
  /// growing back up to the largest shape held before, allocate nothing.
  /// Element values are unspecified afterwards; callers overwrite every
  /// element or zero() first.
  void resize(std::size_t rows, std::size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  /// Sets every element to `value`.
  void fill(float value);
  /// Sets every element to zero (keeps shape).
  void zero() { fill(0.0f); }

  /// Gaussian init with standard deviation `stddev`.
  void randomize(Rng& rng, float stddev);

  /// Sum of squares of all elements.
  double squared_norm() const;

  /// Lossy round-trip through binary16, element-wise (fp16 emulation).
  std::vector<Half> to_half() const;
  static Matrix from_half(std::size_t rows, std::size_t cols,
                          const std::vector<Half>& bits);

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<float> data_;
};

/// out = a · b. Shapes: (m×k)·(k×n) → (m×n). All six matmul* entry
/// points run one register-tiled FMA kernel (kernels::KernelTable::
/// gemm_f32) on the calling thread. Each output element is one fused
/// multiply-add chain over k in ascending order, so row i of `out`
/// depends only on row i of `a` (column i for matmul_tn) and on `b`: its
/// bits are the same whatever the row count, thread or ISA tier (see
/// DESIGN.md, "Inference engine").
void matmul(const Matrix& a, const Matrix& b, Matrix& out);

/// out = a · bᵀ. Shapes: (m×k)·(n×k)ᵀ → (m×n). Copies bᵀ once per call
/// into a per-thread buffer that keeps its capacity.
void matmul_nt(const Matrix& a, const Matrix& b, Matrix& out);

/// out = aᵀ · b. Shapes: (k×m)ᵀ·(k×n) → (m×n).
void matmul_tn(const Matrix& a, const Matrix& b, Matrix& out);

/// out += a · b (accumulating variants used by backprop): each chain is
/// seeded with the old `out` value.
void matmul_acc(const Matrix& a, const Matrix& b, Matrix& out);
void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& out);
void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& out);

/// Elementwise helpers (shapes must match).
void add_inplace(Matrix& target, const Matrix& delta);
void scale_inplace(Matrix& target, float factor);
void hadamard_inplace(Matrix& target, const Matrix& factor);

/// In-place row-wise softmax.
void softmax_rows(Matrix& m);

}  // namespace hpcgpt::tensor
