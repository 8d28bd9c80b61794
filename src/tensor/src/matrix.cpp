#include "hpcgpt/tensor/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "hpcgpt/obs/metrics.hpp"
#include "hpcgpt/obs/trace.hpp"
#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/thread_pool.hpp"

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

// Minimum rows-per-task before the GEMM bothers going parallel: tiny
// matrices (everything in the test suite's nn configs) run inline.
constexpr std::size_t kRowGrain = 16;

// Cache-blocking parameters (see DESIGN.md, "Inference engine").
//   MR×NR — register tile: the micro-kernel keeps an MR×NR accumulator
//           block live in vector registers (4×16 floats = 8 YMM / 4 ZMM).
//   KC    — k-depth of one packed B panel pass, sized so an NR-wide panel
//           strip (KC·NR floats) stays L1-resident while C streams once
//           per pass.
constexpr std::size_t MR = 4;
constexpr std::size_t NR = 16;
constexpr std::size_t KC = 256;

// Below this flop count the packing pass costs more than it saves; the
// plain ikj loop is cache-resident anyway. Covers matvecs and the tiny
// test-suite configs.
constexpr std::size_t kSmallFlops = 32 * 32 * 32;

void check_inner(std::size_t a, std::size_t b, const char* what) {
  // The message is built only on failure: this runs on every GEMM,
  // including each per-token decode projection.
  if (a != b) {
    throw InvalidArgument(std::string("matmul: inner dimension mismatch in ") +
                          what);
  }
}

// How the B operand is laid out in memory relative to the logical
// (k × n) right-hand side the kernel consumes.
enum class BLayout {
  Normal,      // b is k×n, element (k, j) at b(k, j)
  Transposed,  // b is n×k, element (k, j) at b(j, k)   (A·Bᵀ)
};

/// Packs B into per-panel contiguous strips: panel p covers output
/// columns [p·NR, p·NR+NR); element (k, jj) of panel p lives at
/// packed[(p·k_dim + k)·NR + jj]. Edge panels are zero-padded to NR so
/// the micro-kernel never branches on width.
template <BLayout Layout>
std::vector<float> pack_b(const Matrix& b, std::size_t k_dim,
                          std::size_t n) {
  const std::size_t panels = (n + NR - 1) / NR;
  std::vector<float> packed(panels * k_dim * NR, 0.0f);
  for (std::size_t p = 0; p < panels; ++p) {
    const std::size_t j0 = p * NR;
    const std::size_t width = std::min(NR, n - j0);
    float* dst = packed.data() + p * k_dim * NR;
    if constexpr (Layout == BLayout::Normal) {
      for (std::size_t k = 0; k < k_dim; ++k) {
        const float* src = b.row(k).data() + j0;
        std::copy(src, src + width, dst + k * NR);
      }
    } else {
      // Transpose while packing: read n rows of length k_dim.
      for (std::size_t jj = 0; jj < width; ++jj) {
        const float* src = b.row(j0 + jj).data();
        for (std::size_t k = 0; k < k_dim; ++k) {
          dst[k * NR + jj] = src[k];
        }
      }
    }
  }
  return packed;
}

/// Micro-kernel: out[i0..i0+mr) × panel p gains A(i, k0..k1)·Bp(k0..k1).
/// `aget(i, k)` abstracts the A operand layout (normal or transposed) and
/// is inlined away. The mr==MR case is the hot path: fixed-trip loops over
/// an MR×NR accumulator array that the compiler keeps in vector registers.
template <class AGet>
inline void micro_tile(const AGet& aget, std::size_t i0, std::size_t mr,
                       const float* panel, std::size_t k0, std::size_t k1,
                       Matrix& out, std::size_t j0, std::size_t width) {
  float acc[MR][NR] = {};
  if (mr == MR) {
    for (std::size_t k = k0; k < k1; ++k) {
      const float* bp = panel + k * NR;
      const float a0 = aget(i0 + 0, k);
      const float a1 = aget(i0 + 1, k);
      const float a2 = aget(i0 + 2, k);
      const float a3 = aget(i0 + 3, k);
      for (std::size_t j = 0; j < NR; ++j) {
        acc[0][j] += a0 * bp[j];
        acc[1][j] += a1 * bp[j];
        acc[2][j] += a2 * bp[j];
        acc[3][j] += a3 * bp[j];
      }
    }
  } else {
    for (std::size_t k = k0; k < k1; ++k) {
      const float* bp = panel + k * NR;
      for (std::size_t r = 0; r < mr; ++r) {
        const float ar = aget(i0 + r, k);
        for (std::size_t j = 0; j < NR; ++j) acc[r][j] += ar * bp[j];
      }
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    float* out_row = out.row(i0 + r).data() + j0;
    for (std::size_t j = 0; j < width; ++j) out_row[j] += acc[r][j];
  }
}

/// Blocked driver shared by all three GEMM variants: B is packed once
/// into NR-wide panels, then a parallel_for over MR-row blocks runs the
/// register-tiled micro-kernel with a KC-deep k loop. `aget(i, k)` reads
/// logical A(i, k) (i indexes output rows).
template <bool Accumulate, class AGet>
void gemm_blocked(const AGet& aget, std::size_t m, std::size_t k_dim,
                  std::size_t n, const std::vector<float>& packed,
                  Matrix& out) {
  const std::size_t panels = (n + NR - 1) / NR;
  const std::size_t row_blocks = (m + MR - 1) / MR;
  parallel_for(0, row_blocks, [&](std::size_t rb) {
    const std::size_t i0 = rb * MR;
    const std::size_t mr = std::min(MR, m - i0);
    if constexpr (!Accumulate) {
      for (std::size_t r = 0; r < mr; ++r) {
        auto row = out.row(i0 + r);
        std::fill(row.begin(), row.end(), 0.0f);
      }
    }
    for (std::size_t k0 = 0; k0 < k_dim; k0 += KC) {
      const std::size_t k1 = std::min(k_dim, k0 + KC);
      for (std::size_t p = 0; p < panels; ++p) {
        const std::size_t j0 = p * NR;
        const std::size_t width = std::min(NR, n - j0);
        const float* panel = packed.data() + p * k_dim * NR;
        micro_tile(aget, i0, mr, panel, k0, k1, out, j0, width);
      }
    }
  }, std::max<std::size_t>(1, kRowGrain / MR));
}

template <bool Accumulate>
void gemm_nn(const Matrix& a, const Matrix& b, Matrix& out) {
  check_inner(a.cols(), b.rows(), "A*B");
  require(out.rows() == a.rows() && out.cols() == b.cols(),
          "matmul: output shape mismatch");
  const std::size_t m = a.rows();
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.cols();
  // The packed-blocked path only pays off once the packing pass (k·n
  // copies plus an allocation) amortizes over enough output rows; skinny
  // GEMMs — the batched-decode projections, whose m is the lane count —
  // go through the unpacked small path regardless of flop count.
  if (m * k_dim * n < kSmallFlops || m <= 2 * MR) {
    // Dense small path: ikj with the k loop unrolled by four, no
    // zero-skip branch — the branch costs more than it saves on dense
    // activations. Two-row blocking on top: both output rows share each
    // streamed B row, halving weight traffic, while every row keeps the
    // same k-groups-of-four accumulation order whether it runs in a pair
    // or alone — so a decode round's logits do not depend on how many
    // lanes share it (up to 2·MR lanes; the blocked path beyond that
    // reassociates).
    const float* __restrict bp = b.data();
    const std::size_t pairs = m / 2 + (m % 2);
    parallel_for(0, pairs, [&](std::size_t pi) {
      const std::size_t i0 = pi * 2;
      const std::size_t rows = std::min<std::size_t>(2, m - i0);
      for (std::size_t r = 0; r < rows; ++r) {
        if constexpr (!Accumulate) {
          float* o = out.row(i0 + r).data();
          std::fill(o, o + n, 0.0f);
        }
      }
      std::size_t k = 0;
      if (rows == 2) {
        float* __restrict o0 = out.row(i0).data();
        float* __restrict o1 = out.row(i0 + 1).data();
        const float* __restrict ar0 = a.row(i0).data();
        const float* __restrict ar1 = a.row(i0 + 1).data();
        for (; k + 4 <= k_dim; k += 4) {
          const float a00 = ar0[k], a01 = ar0[k + 1];
          const float a02 = ar0[k + 2], a03 = ar0[k + 3];
          const float a10 = ar1[k], a11 = ar1[k + 1];
          const float a12 = ar1[k + 2], a13 = ar1[k + 3];
          const float* __restrict b0 = bp + k * n;
          const float* __restrict b1 = b0 + n;
          const float* __restrict b2 = b1 + n;
          const float* __restrict b3 = b2 + n;
          for (std::size_t j = 0; j < n; ++j) {
            o0[j] += a00 * b0[j] + a01 * b1[j] + a02 * b2[j] + a03 * b3[j];
            o1[j] += a10 * b0[j] + a11 * b1[j] + a12 * b2[j] + a13 * b3[j];
          }
        }
      } else {
        float* __restrict o0 = out.row(i0).data();
        const float* __restrict ar0 = a.row(i0).data();
        for (; k + 4 <= k_dim; k += 4) {
          const float a00 = ar0[k], a01 = ar0[k + 1];
          const float a02 = ar0[k + 2], a03 = ar0[k + 3];
          const float* __restrict b0 = bp + k * n;
          const float* __restrict b1 = b0 + n;
          const float* __restrict b2 = b1 + n;
          const float* __restrict b3 = b2 + n;
          for (std::size_t j = 0; j < n; ++j) {
            o0[j] += a00 * b0[j] + a01 * b1[j] + a02 * b2[j] + a03 * b3[j];
          }
        }
      }
      for (; k < k_dim; ++k) {
        const float* __restrict b_row = bp + k * n;
        for (std::size_t r = 0; r < rows; ++r) {
          float* __restrict o = out.row(i0 + r).data();
          const float aik = a.at(i0 + r, k);
          for (std::size_t j = 0; j < n; ++j) o[j] += aik * b_row[j];
        }
      }
    }, std::max<std::size_t>(1, kRowGrain / 2));
    return;
  }
  const std::vector<float> packed = pack_b<BLayout::Normal>(b, k_dim, n);
  const float* adata = a.data();
  const std::size_t astride = a.cols();
  gemm_blocked<Accumulate>(
      [adata, astride](std::size_t i, std::size_t k) {
        return adata[i * astride + k];
      },
      m, k_dim, n, packed, out);
}

template <bool Accumulate>
void gemm_nt(const Matrix& a, const Matrix& b, Matrix& out) {
  check_inner(a.cols(), b.cols(), "A*B^T");
  require(out.rows() == a.rows() && out.cols() == b.rows(),
          "matmul_nt: output shape mismatch");
  const std::size_t m = a.rows();
  const std::size_t k_dim = a.cols();
  const std::size_t n = b.rows();
  if (m * k_dim * n < kSmallFlops) {
    parallel_for(0, m, [&](std::size_t i) {
      const float* a_row = a.row(i).data();
      float* out_row = out.row(i).data();
      for (std::size_t j = 0; j < n; ++j) {
        const float* b_row = b.row(j).data();
        float sum = 0.0f;
        for (std::size_t k = 0; k < k_dim; ++k) sum += a_row[k] * b_row[k];
        if constexpr (Accumulate) {
          out_row[j] += sum;
        } else {
          out_row[j] = sum;
        }
      }
    }, kRowGrain);
    return;
  }
  // Transpose-pack Bᵀ once, then reuse the streaming kernel: turns the
  // strided dot-product form into the same panel-contiguous FMA loop.
  const std::vector<float> packed = pack_b<BLayout::Transposed>(b, k_dim, n);
  const float* adata = a.data();
  const std::size_t astride = a.cols();
  gemm_blocked<Accumulate>(
      [adata, astride](std::size_t i, std::size_t k) {
        return adata[i * astride + k];
      },
      m, k_dim, n, packed, out);
}

template <bool Accumulate>
void gemm_tn(const Matrix& a, const Matrix& b, Matrix& out) {
  check_inner(a.rows(), b.rows(), "A^T*B");
  require(out.rows() == a.cols() && out.cols() == b.cols(),
          "matmul_tn: output shape mismatch");
  const std::size_t m = a.cols();
  const std::size_t k_dim = a.rows();
  const std::size_t n = b.cols();
  if (m * k_dim * n < kSmallFlops) {
    // Parallelize over output rows (columns of a) so writes never collide.
    parallel_for(0, m, [&](std::size_t i) {
      float* out_row = out.row(i).data();
      if constexpr (!Accumulate) {
        std::fill(out_row, out_row + n, 0.0f);
      }
      for (std::size_t k = 0; k < k_dim; ++k) {
        const float aki = a.at(k, i);
        const float* b_row = b.row(k).data();
        for (std::size_t j = 0; j < n; ++j) {
          out_row[j] += aki * b_row[j];
        }
      }
    }, kRowGrain);
    return;
  }
  const std::vector<float> packed = pack_b<BLayout::Normal>(b, k_dim, n);
  const float* adata = a.data();
  const std::size_t astride = a.cols();
  gemm_blocked<Accumulate>(
      // Logical A(i, k) is stored a(k, i): strided broadcast loads; the
      // KC blocking keeps the touched A block L2-resident.
      [adata, astride](std::size_t i, std::size_t k) {
        return adata[k * astride + i];
      },
      m, k_dim, n, packed, out);
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
  gemm_nn<false>(a, b, out);
}
void matmul_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  count_gemm(a.rows(), a.cols(), b.cols());
  HPCGPT_TRACE_IF("tensor.gemm", a.rows() >= 16);
  gemm_nn<true>(a, b, out);
}
void matmul_nt(const Matrix& a, const Matrix& b, Matrix& out) {
  count_gemm(a.rows(), a.cols(), b.rows());
  HPCGPT_TRACE_IF("tensor.gemm", a.rows() >= 16);
  gemm_nt<false>(a, b, out);
}
void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  count_gemm(a.rows(), a.cols(), b.rows());
  HPCGPT_TRACE_IF("tensor.gemm", a.rows() >= 16);
  gemm_nt<true>(a, b, out);
}
void matmul_tn(const Matrix& a, const Matrix& b, Matrix& out) {
  count_gemm(a.cols(), a.rows(), b.cols());
  HPCGPT_TRACE_IF("tensor.gemm", a.cols() >= 16);
  gemm_tn<false>(a, b, out);
}
void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& out) {
  count_gemm(a.cols(), a.rows(), b.cols());
  HPCGPT_TRACE_IF("tensor.gemm", a.cols() >= 16);
  gemm_tn<true>(a, b, out);
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
  // Row-parallel: each row is independent; the grain keeps the small
  // attention matrices of the test configs on the calling thread.
  parallel_for(0, m.rows(), [&](std::size_t r) {
    auto row = m.row(r);
    float max_val = row[0];
    for (const float x : row) max_val = std::max(max_val, x);
    // Separate exp and sum passes: the fused loop carries a float
    // reduction that blocks vectorization of the exp.
    for (float& x : row) x = std::exp(x - max_val);
    float sum = 0.0f;
    for (const float x : row) sum += x;
    const float inv = 1.0f / sum;
    for (float& x : row) x *= inv;
  }, kRowGrain);
}

}  // namespace hpcgpt::tensor
