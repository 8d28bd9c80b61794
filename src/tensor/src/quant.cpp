#include "hpcgpt/tensor/quant.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "hpcgpt/support/error.hpp"
#include "hpcgpt/tensor/half.hpp"
#include "hpcgpt/tensor/kernels.hpp"

namespace hpcgpt::tensor {
namespace {

constexpr std::size_t kInt8Pad = 16;  // int8 kernels consume 4-row quads

std::size_t pad_to(std::size_t n, std::size_t unit) {
  return (n + unit - 1) / unit * unit;
}

// Per-thread staging for the dynamically quantized activation row: the
// server prefills its lanes on several threads at once, so this must not
// be shared.
struct ActScratch {
  std::vector<std::int8_t> qx;
};

ActScratch& scratch() {
  thread_local ActScratch s;
  return s;
}

}  // namespace

const char* quant_mode_name(QuantMode mode) {
  switch (mode) {
    case QuantMode::Fp32:
      return "fp32";
    case QuantMode::Fp16:
      return "fp16";
    case QuantMode::Int8:
      return "int8";
  }
  return "unknown";
}

std::optional<QuantMode> parse_quant_mode(std::string_view name) {
  if (name == "fp32") return QuantMode::Fp32;
  if (name == "fp16") return QuantMode::Fp16;
  if (name == "int8") return QuantMode::Int8;
  return std::nullopt;
}

QuantizedMatrix QuantizedMatrix::quantize(const Matrix& w, QuantMode mode) {
  require(mode != QuantMode::Fp32,
                 "QuantizedMatrix::quantize: fp32 weights stay in Matrix");
  require(!w.empty(), "QuantizedMatrix::quantize: empty weight");
  QuantizedMatrix q;
  q.rows_ = w.rows();
  q.cols_ = w.cols();
  q.mode_ = mode;
  const std::size_t in = w.rows();
  const std::size_t out = w.cols();
  if (mode == QuantMode::Int8) {
    q.in_padded_ = pad_to(in, kInt8Pad);
    q.q_.assign(out * q.in_padded_, 0);
    q.colsum_.assign(out, 0);
    q.scale_.assign(out, 0.0f);
    std::vector<float> inv(out, 0.0f);
    for (std::size_t j = 0; j < out; ++j) {
      float amax = 0.0f;
      for (std::size_t i = 0; i < in; ++i) {
        amax = std::max(amax, std::fabs(w.at(i, j)));
      }
      if (amax > 0.0f) {
        q.scale_[j] = amax / 127.0f;
        inv[j] = 127.0f / amax;
      }
    }
    // Quad-interleaved layout (see kernels.hpp): input rows in groups of
    // four, each group holding every column's 4-byte quad contiguously.
    for (std::size_t i = 0; i < in; ++i) {
      std::int8_t* block = q.q_.data() + (i / 4) * out * 4 + (i % 4);
      for (std::size_t j = 0; j < out; ++j) {
        float v = std::nearbyint(w.at(i, j) * inv[j]);
        v = std::min(127.0f, std::max(-127.0f, v));
        const auto qv = static_cast<std::int8_t>(v);
        block[j * 4] = qv;
        q.colsum_[j] += qv;
      }
    }
  } else {
    q.in_padded_ = in;  // row-major fp16 needs no padding
    q.h_.assign(in * out, 0);
    for (std::size_t i = 0; i < in; ++i) {
      std::uint16_t* row = q.h_.data() + i * out;
      for (std::size_t j = 0; j < out; ++j) {
        row[j] = Half::from_float(w.at(i, j)).bits();
      }
    }
  }
  return q;
}

std::size_t QuantizedMatrix::memory_bytes() const {
  return q_.size() * sizeof(std::int8_t) + h_.size() * sizeof(std::uint16_t) +
         colsum_.size() * sizeof(std::int32_t) + scale_.size() * sizeof(float);
}

Matrix QuantizedMatrix::dequantize() const {
  Matrix w(rows_, cols_);
  if (mode_ == QuantMode::Int8) {
    for (std::size_t i = 0; i < rows_; ++i) {
      const std::int8_t* block = q_.data() + (i / 4) * cols_ * 4 + (i % 4);
      for (std::size_t j = 0; j < cols_; ++j) {
        w.at(i, j) = static_cast<float>(block[j * 4]) * scale_[j];
      }
    }
  } else {
    for (std::size_t i = 0; i < rows_; ++i) {
      const std::uint16_t* row = h_.data() + i * cols_;
      for (std::size_t j = 0; j < cols_; ++j) {
        w.at(i, j) = Half::from_bits(row[j]).to_float();
      }
    }
  }
  return w;
}

void QuantizedMatrix::gemv(std::span<const float> x, std::span<float> y) const {
  require(x.size() == rows_ && y.size() == cols_,
                 "QuantizedMatrix::gemv: shape mismatch");
  if (mode_ == QuantMode::Fp16) {
    kernels::active().gemm_f16(x.data(), rows_, 1, h_.data(), y.data(), 1,
                               rows_, cols_, false);
    return;
  }
  ActScratch& s = scratch();
  if (s.qx.size() < in_padded_) {
    s.qx.resize(in_padded_);
  }
  const float xscale =
      kernels::quantize_row_i8(x.data(), rows_, in_padded_, s.qx.data());
  gemv_prequant(s.qx.data(), xscale, y);
}

void QuantizedMatrix::gemv_prequant(const std::int8_t* qx, float xscale,
                                    std::span<float> y) const {
  require(mode_ == QuantMode::Int8 && y.size() == cols_,
          "QuantizedMatrix::gemv_prequant: int8 matrix required");
  if (xscale == 0.0f) {
    std::memset(y.data(), 0, y.size() * sizeof(float));
    return;
  }
  kernels::active().gemv_i8(qx, q_.data(), colsum_.data(), scale_.data(),
                            xscale, in_padded_, cols_, y.data());
}

void QuantizedMatrix::matmul(const Matrix& x, Matrix& out) const {
  require(x.cols() == rows_, "QuantizedMatrix::matmul: shape mismatch");
  out.resize(x.rows(), cols_);
  if (mode_ == QuantMode::Fp16) {
    kernels::active().gemm_f16(x.data(), rows_, 1, h_.data(), out.data(),
                               x.rows(), rows_, cols_, false);
    return;
  }
  for (std::size_t r = 0; r < x.rows(); ++r) gemv(x.row(r), out.row(r));
}

void QuantizedMatrix::matmul_prequant(const std::int8_t* qx,
                                      const float* xscale, std::size_t m,
                                      Matrix& out) const {
  out.resize(m, cols_);
  for (std::size_t r = 0; r < m; ++r) {
    gemv_prequant(qx + r * in_padded_, xscale[r], out.row(r));
  }
}

}  // namespace hpcgpt::tensor
