#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace hpcgpt::tensor::kernels {

/// Instruction-set tiers of the micro-kernels (GEMM, int8 GEMV,
/// attention), best-first. The active tier is probed from cpuid at first
/// use (see active()); every tier computes bitwise-identical GEMM results
/// over fp32 and fp16 weights and int8 GEMV results (the GEMM rounds one
/// FMA per step in a fixed k order over exactly widened weights, and the
/// int8 dot products accumulate in exact int32 arithmetic, so vector
/// width cannot change the answer — asserted tier-vs-tier in
/// test_kernels.cpp).
enum class IsaTier {
  Scalar = 0,  ///< portable C++ fallback — always supported
  Neon,        ///< aarch64 NEON (int16-widening multiply-accumulate)
  Avx2,        ///< x86 AVX2 (vpmaddubsw sign-trick) + FMA, F16C for fp16
  Avx512,      ///< x86 AVX-512 F/BW/VL/VNNI (vpdpbusd offset-binary)
};

const char* tier_name(IsaTier tier);

/// Whether the running CPU can execute `tier`'s kernels.
bool tier_supported(IsaTier tier);

/// All tiers the running CPU supports, best (widest) first. Always ends
/// with Scalar.
std::vector<IsaTier> supported_tiers();

/// Parses a HPCGPT_ISA-style tier name ("scalar", "avx2", "avx512",
/// "neon"); nullopt for anything else.
std::optional<IsaTier> parse_tier(std::string_view name);

/// Positions per KV page in the block-paged cache (nn::KvPagePool). The
/// value is load-bearing for the paged attention kernels below: page
/// boundaries land on multiples of 16, which coincide with both the
/// 8-wide AVX2 and the 16-wide AVX-512 position chunks, so a full page is
/// whole vector chunks and only the last, partial page needs a tail.
inline constexpr std::size_t kKvPageSize = 16;

/// The most consecutive causal query rows one call of the paged attention
/// kernels takes (a tile; see KernelTable::attn_scores_paged).
inline constexpr std::size_t kAttnTileRows = 4;

/// One tier's kernel set. All pointers are always non-null (a tier that
/// lacks a fast variant of some kernel carries the scalar one).
struct KernelTable {
  IsaTier tier = IsaTier::Scalar;
  const char* name = "scalar";

  /// fp32 GEMM behind every tensor::matmul* entry point: C = A·B, or
  /// C += A·B when `accumulate`. A is m×k with element (i, p) at
  /// a[i·a_rs + p·a_cs], so a transposed operand is read in place; B is
  /// row-major k×n and C row-major m×n. Each C element is one chain of
  /// fused multiply-adds over p = 0, 1, …, k-1, seeded with 0 (or with
  /// the old C value when accumulating). Row i of C therefore depends
  /// only on row i of A and on B: not on m, the tile shape, the thread
  /// or the tier, all of which return the same bits.
  void (*gemm_f32)(const float* a, std::size_t a_rs, std::size_t a_cs,
                   const float* b, float* c, std::size_t m, std::size_t k,
                   std::size_t n, bool accumulate);

  /// gemm_f32 with B held as binary16 bits (row-major k×n, the layout of
  /// QuantizedMatrix's fp16 weights): the same tiles and FMA chains, each
  /// weight widened to fp32 (exactly) as it is loaded. It returns the
  /// bits gemm_f32 returns over the widened B, on every tier.
  void (*gemm_f16)(const float* a, std::size_t a_rs, std::size_t a_cs,
                   const std::uint16_t* b, float* c, std::size_t m,
                   std::size_t k, std::size_t n, bool accumulate);

  /// Quantized GEMV: y[j] = (float(dot_j) * xscale) * wscale[j] where
  /// dot_j = Σ_i qx[i]·w_ij in exact int32. `w` is quad-interleaved:
  /// input rows are grouped four at a time and each group stores all
  /// `out` columns' 4-byte quads contiguously (byte index
  /// (i/4·out + j)·4 + i%4), so one vector load covers 8 (AVX2) or 16
  /// (AVX-512) columns and the activation quad broadcasts — column
  /// accumulators stay in registers for the whole input loop. `in` is a
  /// multiple of 16 (both operands zero-padded); `colsum[j]` is the
  /// precomputed Σ_i w_ij (used by offset-binary tiers to undo the +128
  /// activation bias; ignored by the others).
  void (*gemv_i8)(const std::int8_t* qx, const std::int8_t* w,
                  const std::int32_t* colsum, const float* wscale,
                  float xscale, std::size_t in, std::size_t out, float* y);

  // --- paged fp32 attention helpers -------------------------------------
  // Causal attention against the block-paged KV cache, for inference and
  // training alike: position s lives in slot s % kKvPageSize of
  // pages[s / kKvPageSize], and within a page feature i's slots start at
  // offset page_off + i·kKvPageSize (feature-major with stride
  // kKvPageSize). Every page holds all kKvPageSize slots.
  //
  // Each call takes a tile of `rows` consecutive causal query rows,
  // 1 ≤ rows ≤ kAttnTileRows: row r covers positions [0, len0 + r), and
  // row r of a row-major operand x starts at x + r·stride. The AVX-512
  // tier loads each K/V page, and each dK/dV page slice, once for all of
  // a tile's rows; the scalar, NEON and AVX2 tiers loop the rows.
  // Every row gets exactly the bits a tile of one gives it, so how rows
  // are tiled never changes a result (test_kernels.cpp, memcmp); a decode
  // step is a tile of one.
  //
  // These are float kernels: results are identical across calls within
  // one tier (what the one inference forward's bitwise contracts need)
  // but may differ between tiers by accumulation order / FMA rounding,
  // like any fp32 re-association — test_kernels.cpp bounds each tier
  // against the scalar one on multi-page caches.

  /// probs_r[s] = Σ_i (q_r[i] · scale) · K[s] for s < len0 + r, over a
  /// paged K cache; q_r = q + r·q_stride, probs_r = probs + r·probs_stride.
  void (*attn_scores_paged)(const float* q, std::size_t q_stride,
                            float scale, const float* const* pages,
                            std::size_t page_off, std::size_t hd,
                            std::size_t len0, std::size_t rows, float* probs,
                            std::size_t probs_stride);

  /// out_r[i] = inv[r] · Σ_{s < len0 + r} probs_r[s] · V[s] over a paged V
  /// cache; probs_r = probs + r·probs_stride, out_r = out + r·out_stride.
  void (*attn_values_paged)(const float* probs, std::size_t probs_stride,
                            const float* inv, const float* const* pages,
                            std::size_t page_off, std::size_t hd,
                            std::size_t len0, std::size_t rows, float* out,
                            std::size_t out_stride);

  /// Attention backward's rank-1 updates of a paged dK/dV buffer (dK slab
  /// at k_off, dV slab at v_off): for r = 0, 1, …, rows-1 in that order
  /// and every s < len0 + r,
  ///   dK[s][i] += ds_r[s] · q_r[i]
  ///   dV[s][i] += e_r[s] · (d_out_r[i] · inv[r])
  /// with ds_r/e_r = ds/e + r·p_stride and q_r/d_out_r = q/d_out +
  /// r·q_stride. The AVX-512 tier fuses each update into one FMA; the
  /// other tiers share one loop whose multiply-add fuses wherever the
  /// build's flags let it.
  void (*attn_rank1_paged)(const float* ds, const float* e,
                           std::size_t p_stride, const float* q,
                           const float* d_out, std::size_t q_stride,
                           const float* inv, float* const* pages,
                           std::size_t k_off, std::size_t v_off,
                           std::size_t hd, std::size_t len0,
                           std::size_t rows);

  /// In-place softmax numerator over probs[0..len): probs[s] ←
  /// fast_expf(probs[s] - max). Returns 1/Σ so callers can fold the
  /// normalisation into the value pass (the existing decode contract).
  float (*softmax_row)(float* probs, std::size_t len);

  /// out[i] = fp16_to_fp32(a[i]) + fp16_to_fp32(b[i]) — the embedding
  /// gather+add of quantized models (token row + position row).
  void (*add_half_rows)(const std::uint16_t* a, const std::uint16_t* b,
                        std::size_t n, float* out);

  /// Decode-path RMSNorm row: out[i] = x[i] · r · gain[i] with
  /// r = 1/sqrt(mean(x²) + eps).
  void (*rmsnorm_row)(const float* x, const float* gain, std::size_t n,
                      float eps, float* out);

  /// SwiGLU elementwise combine, in place:
  /// gate[j] ← (gate[j] / (1 + e^{-gate[j]})) · up[j].
  void (*silu_mul)(float* gate, const float* up, std::size_t n);
};

/// The kernel table for `tier`; valid to call even for unsupported tiers
/// (the table is just data), but executing its kernels then is illegal.
const KernelTable& table_for(IsaTier tier);

/// The active kernel table. First call probes cpuid for the best
/// supported tier; the HPCGPT_ISA environment variable ("scalar",
/// "avx2", "avx512", "neon") overrides the probe when it names a
/// supported tier (an unsupported or unknown name warns on stderr and
/// keeps the probed tier — so forcing "avx512" on a laptop degrades
/// gracefully instead of crashing).
const KernelTable& active();

/// Forces the active tier (test hook behind the HPCGPT_ISA contract).
/// Returns false — and leaves the active tier unchanged — when the
/// running CPU does not support `tier`.
bool set_active_tier(IsaTier tier);

/// Quantizes one activation row to symmetric int8: out[i] =
/// round_to_nearest_even(x[i] * 127 / max|x|), zero-padding out[n..padded).
/// Returns the dequantization scale (max|x| / 127; 0 for an all-zero
/// row). Deliberately one shared tier-independent code path (baseline
/// SSE2 on x86-64, plain scalar elsewhere): it feeds every tier the same
/// bytes, which is half of the bitwise-identity guarantee.
float quantize_row_i8(const float* x, std::size_t n, std::size_t padded,
                      std::int8_t* out);

}  // namespace hpcgpt::tensor::kernels
