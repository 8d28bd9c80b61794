#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "hpcgpt/tensor/matrix.hpp"

namespace hpcgpt::tensor {

/// Weight storage precision for inference. Fp32 is the training format
/// (plain Matrix); Fp16 and Int8 are inference-only packed formats held
/// by QuantizedMatrix.
enum class QuantMode : std::uint8_t { Fp32 = 0, Fp16 = 1, Int8 = 2 };

const char* quant_mode_name(QuantMode mode);
std::optional<QuantMode> parse_quant_mode(std::string_view name);

/// A weight matrix packed for the int8 GEMV and the fp16 GEMM kernels.
///
/// The logical shape matches the fp32 weight it was quantized from: an
/// in×out matrix applied as y = x·W.
///
/// Int8 uses symmetric per-output-channel scales: channel j stores
/// round(w[:,j] / scale[j]) with scale[j] = max|w[:,j]| / 127, plus the
/// channel's int8 column sum (needed by the AVX-512 VNNI offset-binary
/// kernel). The bytes are quad-interleaved for KernelTable::gemv_i8 (in
/// padded with zeros to 16): input rows in groups of four, each group
/// holding every channel's 4-byte quad contiguously. Activations are
/// quantized dynamically per row at call time.
///
/// Fp16 stores IEEE binary16 bits row-major in×out, the fp32 Matrix's
/// own layout, which KernelTable::gemm_f16 reads as its B operand: an
/// fp16 product returns the bits the fp32 GEMM returns over dequantize().
/// Dispatch to the SIMD tier happens per call through
/// tensor::kernels::active().
class QuantizedMatrix {
 public:
  QuantizedMatrix() = default;

  /// Packs `w` (in×out fp32) for `mode` (must be Fp16 or Int8).
  static QuantizedMatrix quantize(const Matrix& w, QuantMode mode);

  QuantMode mode() const { return mode_; }
  bool empty() const { return cols_ == 0; }
  /// Logical fp32 shape (in = rows, out = cols), not the padded one.
  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  /// Bytes of packed weight storage (quantized data + scales + colsums).
  std::size_t memory_bytes() const;

  /// Expands back to an in×out fp32 matrix (tests / debugging). Fp16 is
  /// exact per element; Int8 reconstructs q[j][i] * scale[j].
  Matrix dequantize() const;

  /// y = x·W for one activation row (x: in floats, y: out floats).
  void gemv(std::span<const float> x, std::span<float> y) const;

  /// Packed activation length the int8 kernels expect: rows() rounded up
  /// to the quantizer's 16-element chunk.
  std::size_t padded_rows() const { return in_padded_; }

  /// Int8 only: y = x·W with the activation row already quantized — `qx`
  /// holds padded_rows() bytes from kernels::quantize_row_i8 and
  /// `xscale` its returned scale (xscale == 0 means an all-zero row).
  /// Lets sibling layers that consume the same row (wq/wk/wv, gate/up)
  /// share a single quantization pass; the quantizer depends on the row
  /// alone, so results are bitwise-identical to gemv().
  void gemv_prequant(const std::int8_t* qx, float xscale,
                     std::span<float> y) const;

  /// out = x·W (x: m×in → out: m×out) on the calling thread: one
  /// gemm_f16 call over all rows for fp16, a gemv per row for int8. Row r
  /// of `out` equals gemv(x.row(r)) bit for bit. Reshapes `out` within
  /// its capacity (Matrix::resize).
  void matmul(const Matrix& x, Matrix& out) const;

  /// Int8 only: matmul() over `m` activation rows already quantized —
  /// row r's padded_rows() bytes start at qx + r·padded_rows() and its
  /// scale is xscale[r]. The multi-row form of gemv_prequant, and bitwise
  /// equal to matmul() on the rows they came from.
  void matmul_prequant(const std::int8_t* qx, const float* xscale,
                       std::size_t m, Matrix& out) const;

  /// Per-output-channel dequantization scales (Int8 only; empty for Fp16).
  std::span<const float> scales() const { return scale_; }

 private:
  std::size_t rows_ = 0;       // logical in
  std::size_t cols_ = 0;       // logical out
  std::size_t in_padded_ = 0;  // packed row length
  QuantMode mode_ = QuantMode::Fp32;
  std::vector<std::int8_t> q_;        // Int8: in_padded_ × cols_, quads
  std::vector<std::int32_t> colsum_;  // Int8: per channel Σ_i q
  std::vector<float> scale_;          // Int8: per channel
  std::vector<std::uint16_t> h_;      // Fp16: rows_ × cols_ (bits)
};

}  // namespace hpcgpt::tensor
