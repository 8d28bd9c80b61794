#include "hpcgpt/tensor/matrix.hpp"

#include <algorithm>
#include <string>

#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/tensor/kernels.hpp"

namespace hpcgpt::tensor {

Matrix::Matrix(std::size_t rows, std::size_t cols, float fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

void Matrix::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Matrix::randomize(Rng& rng, float stddev) {
  for (float& x : data_) {
    x = static_cast<float>(rng.next_gaussian()) * stddev;
  }
}

double Matrix::squared_norm() const {
  double sum = 0.0;
  for (const float x : data_) sum += static_cast<double>(x) * x;
  return sum;
}

std::vector<Half> Matrix::to_half() const {
  std::vector<Half> out(data_.size());
  for (std::size_t i = 0; i < data_.size(); ++i) {
    out[i] = Half::from_float(data_[i]);
  }
  return out;
}

Matrix Matrix::from_half(std::size_t rows, std::size_t cols,
                         const std::vector<Half>& bits) {
  require(bits.size() == rows * cols, "Matrix::from_half: size mismatch");
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < bits.size(); ++i) {
    m.data_[i] = bits[i].to_float();
  }
  return m;
}

namespace {

void check_inner(std::size_t a, std::size_t b, const char* what) {
  // The message is built only on failure: this runs on every GEMM,
  // including each per-token decode projection.
  if (a != b) {
    throw InvalidArgument(std::string("matmul: inner dimension mismatch in ") +
                          what);
  }
}

// Every entry point runs the one fp32 kernel (kernels::KernelTable::
// gemm_f32) on the calling thread. Parallelism belongs to the layers
// above — serve lanes, trainer workers — and a pool round trip costs
// more than a whole prefill-sized product here.

void gemm_nn(const Matrix& a, const Matrix& b, Matrix& out, bool accumulate) {
  check_inner(a.cols(), b.rows(), "A*B");
  require(out.rows() == a.rows() && out.cols() == b.cols(),
          "matmul: output shape mismatch");
  kernels::active().gemm_f32(a.data(), a.cols(), 1, b.data(), out.data(),
                             a.rows(), a.cols(), b.cols(), accumulate);
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& out, bool accumulate) {
  check_inner(a.cols(), b.cols(), "A*B^T");
  require(out.rows() == a.rows() && out.cols() == b.rows(),
          "matmul_nt: output shape mismatch");
  const std::size_t k_dim = b.cols();
  const std::size_t n = b.rows();
  // The kernel reads B as row-major k×n, so Bᵀ is materialized once per
  // call into a per-thread buffer that keeps its capacity.
  thread_local std::vector<float> bt;
  bt.resize(k_dim * n);
  for (std::size_t j = 0; j < n; ++j) {
    const float* src = b.row(j).data();
    for (std::size_t k = 0; k < k_dim; ++k) bt[k * n + j] = src[k];
  }
  kernels::active().gemm_f32(a.data(), a.cols(), 1, bt.data(), out.data(),
                             a.rows(), k_dim, n, accumulate);
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& out, bool accumulate) {
  check_inner(a.rows(), b.rows(), "A^T*B");
  require(out.rows() == a.cols() && out.cols() == b.cols(),
          "matmul_tn: output shape mismatch");
  // Logical A(i, k) is stored a(k, i): row stride 1, column stride m.
  kernels::active().gemm_f32(a.data(), 1, a.cols(), b.data(), out.data(),
                             a.cols(), a.rows(), b.cols(), accumulate);
}

// GEMM call-volume accounting: two relaxed atomic adds per matmul entry,
// negligible next to even the smallest kernel. Every future perf PR reads
// its arithmetic workload off these counters (`tensor.gemm.*`).
void count_gemm(std::size_t m, std::size_t k_dim, std::size_t n) {
  static obs::Counter& calls =
      obs::MetricsRegistry::global().counter("tensor.gemm.calls");
  static obs::Counter& flops =
      obs::MetricsRegistry::global().counter("tensor.gemm.flops");
  calls.add(1);
  flops.add(2 * m * k_dim * n);
}

}  // namespace

// GEMM tracing: only multi-row (prefill/training-shaped, m >= 16) calls
// get spans — per-token decode GEMMs fire thousands of times per second
// and would both flood the ring buffer and blow the obs-overhead budget.
void matmul(const Matrix& a, const Matrix& b, Matrix& out) {
  count_gemm(a.rows(), a.cols(), b.cols());
  HPCGPT_TRACE_IF("tensor.gemm", a.rows() >= 16);
  gemm_nn(a, b, out, false);
}
void matmul_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  count_gemm(a.rows(), a.cols(), b.cols());
  HPCGPT_TRACE_IF("tensor.gemm", a.rows() >= 16);
  gemm_nn(a, b, out, true);
}
void matmul_nt(const Matrix& a, const Matrix& b, Matrix& out) {
  count_gemm(a.rows(), a.cols(), b.rows());
  HPCGPT_TRACE_IF("tensor.gemm", a.rows() >= 16);
  gemm_nt(a, b, out, false);
}
void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  count_gemm(a.rows(), a.cols(), b.rows());
  HPCGPT_TRACE_IF("tensor.gemm", a.rows() >= 16);
  gemm_nt(a, b, out, true);
}
void matmul_tn(const Matrix& a, const Matrix& b, Matrix& out) {
  count_gemm(a.cols(), a.rows(), b.cols());
  HPCGPT_TRACE_IF("tensor.gemm", a.cols() >= 16);
  gemm_tn(a, b, out, false);
}
void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  count_gemm(a.cols(), a.rows(), b.cols());
  HPCGPT_TRACE_IF("tensor.gemm", a.cols() >= 16);
  gemm_tn(a, b, out, true);
}

void add_inplace(Matrix& target, const Matrix& delta) {
  require(target.same_shape(delta), "add_inplace: shape mismatch");
  float* t = target.data();
  const float* d = delta.data();
  for (std::size_t i = 0; i < target.size(); ++i) t[i] += d[i];
}

void scale_inplace(Matrix& target, float factor) {
  for (float& x : target.flat()) x *= factor;
}

void hadamard_inplace(Matrix& target, const Matrix& factor) {
  require(target.same_shape(factor), "hadamard_inplace: shape mismatch");
  float* t = target.data();
  const float* f = factor.data();
  for (std::size_t i = 0; i < target.size(); ++i) t[i] *= f[i];
}

void softmax_rows(Matrix& m) {
  // The exponentials are the attention softmax's kernel (fast_expf,
  // vectorized per ISA tier); rows run on the calling thread, as the GEMM
  // does.
  const kernels::KernelTable& kt = kernels::active();
  for (std::size_t r = 0; r < m.rows(); ++r) {
    auto row = m.row(r);
    const float inv = kt.softmax_row(row.data(), row.size());
    for (float& x : row) x *= inv;
  }
}

}  // namespace hpcgpt::tensor
