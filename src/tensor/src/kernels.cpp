#include "hpcgpt/tensor/kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "hpcgpt/support/fastmath.hpp"
#include "hpcgpt/tensor/half.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HPCGPT_X86 1
#endif
#if defined(__aarch64__)
#include <arm_neon.h>
#define HPCGPT_NEON 1
#endif

namespace hpcgpt::tensor::kernels {
namespace {

// ---------------------------------------------------------------------------
// Scalar reference tier. The int8 dot accumulates in int32 — every other
// tier must reproduce these exact integers, and the epilogue expression
// below (cast, ×xscale, ×wscale, in that order) is the canonical one all
// tiers share element-wise, so vector epilogues stay bitwise identical.
// ---------------------------------------------------------------------------

inline float scale_dot(std::int32_t dot, float xscale, float wscale) {
  return (static_cast<float>(dot) * xscale) * wscale;
}

void gemv_i8_scalar(const std::int8_t* qx, const std::int8_t* w,
                    const std::int32_t* /*colsum*/, const float* wscale,
                    float xscale, std::size_t in, std::size_t out, float* y) {
  const std::size_t blocks = in / 4;
  for (std::size_t j = 0; j < out; ++j) {
    std::int32_t acc = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      const std::int8_t* wb = w + (b * out + j) * 4;
      const std::int8_t* xb = qx + b * 4;
      acc += static_cast<std::int32_t>(xb[0]) * wb[0] +
             static_cast<std::int32_t>(xb[1]) * wb[1] +
             static_cast<std::int32_t>(xb[2]) * wb[2] +
             static_cast<std::int32_t>(xb[3]) * wb[3];
    }
    y[j] = scale_dot(acc, xscale, wscale[j]);
  }
}

// --- scalar fp32 attention helpers ----------------------------------------
// The scores loop over one contiguous feature-major K block (stride
// `stride` between features); the paged kernel below runs it once per
// page. It autovectorizes to baseline SSE2/NEON.

void attn_scores_scalar(const float* q, float scale, const float* k,
                        std::size_t hd, std::size_t stride, std::size_t len,
                        float* probs) {
  std::fill(probs, probs + len, 0.0f);
  for (std::size_t i = 0; i < hd; ++i) {
    const float qi = q[i] * scale;
    const float* __restrict kt = k + i * stride;
    for (std::size_t s = 0; s < len; ++s) probs[s] += qi * kt[s];
  }
}

// --- scalar paged attention ------------------------------------------------
// The scalar tier loops the rows of a tile. The scores pass is per-page
// independent (probs[s] only reads position s), so it runs the block
// kernel page by page. The values pass carries one accumulator per
// feature across pages, feature-outer / position-inner, so a position's
// contribution lands in the same order wherever the page boundaries fall.

void attn_scores_paged_scalar(const float* q, std::size_t q_stride,
                              float scale, const float* const* pages,
                              std::size_t page_off, std::size_t hd,
                              std::size_t len0, std::size_t rows, float* probs,
                              std::size_t probs_stride) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t len = len0 + r;
    for (std::size_t p = 0; p * kKvPageSize < len; ++p) {
      const std::size_t base = p * kKvPageSize;
      const std::size_t n = std::min(kKvPageSize, len - base);
      attn_scores_scalar(q + r * q_stride, scale, pages[p] + page_off, hd,
                         kKvPageSize, n, probs + r * probs_stride + base);
    }
  }
}

void attn_values_paged_scalar(const float* probs, std::size_t probs_stride,
                              const float* inv, const float* const* pages,
                              std::size_t page_off, std::size_t hd,
                              std::size_t len0, std::size_t rows, float* out,
                              std::size_t out_stride) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t len = len0 + r;
    const float* pr = probs + r * probs_stride;
    const std::size_t n_pages = (len + kKvPageSize - 1) / kKvPageSize;
    for (std::size_t i = 0; i < hd; ++i) {
      float acc = 0.0f;
      for (std::size_t p = 0; p < n_pages; ++p) {
        const std::size_t base = p * kKvPageSize;
        const float* __restrict vt = pages[p] + page_off + i * kKvPageSize;
        const std::size_t n = std::min(kKvPageSize, len - base);
        for (std::size_t s = 0; s < n; ++s) acc += pr[base + s] * vt[s];
      }
      out[r * out_stride + i] = acc * inv[r];
    }
  }
}

void attn_rank1_paged_scalar(const float* ds, const float* e,
                             std::size_t p_stride, const float* q,
                             const float* d_out, std::size_t q_stride,
                             const float* inv, float* const* pages,
                             std::size_t k_off, std::size_t v_off,
                             std::size_t hd, std::size_t len0,
                             std::size_t rows) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t len = len0 + r;
    const float* dsr = ds + r * p_stride;
    const float* er = e + r * p_stride;
    for (std::size_t base = 0; base < len; base += kKvPageSize) {
      const std::size_t n = std::min(kKvPageSize, len - base);
      float* page = pages[base / kKvPageSize];
      for (std::size_t i = 0; i < hd; ++i) {
        const float qi = q[r * q_stride + i];
        const float oi = d_out[r * q_stride + i] * inv[r];
        float* __restrict dk = page + k_off + i * kKvPageSize;
        float* __restrict dv = page + v_off + i * kKvPageSize;
        for (std::size_t j = 0; j < n; ++j) {
          dk[j] += dsr[base + j] * qi;
          dv[j] += er[base + j] * oi;
        }
      }
    }
  }
}

float softmax_row_scalar(float* probs, std::size_t len) {
  float max_score = probs[0];
  for (std::size_t s = 1; s < len; ++s) {
    max_score = std::max(max_score, probs[s]);
  }
  for (std::size_t s = 0; s < len; ++s) {
    probs[s] = fast_expf(probs[s] - max_score);
  }
  float denom = 0.0f;
  for (std::size_t s = 0; s < len; ++s) denom += probs[s];
  return 1.0f / denom;
}

void add_half_rows_scalar(const std::uint16_t* a, const std::uint16_t* b,
                          std::size_t n, float* out) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = Half::from_bits(a[i]).to_float() + Half::from_bits(b[i]).to_float();
  }
}

void rmsnorm_row_scalar(const float* x, const float* gain, std::size_t n,
                        float eps, float* out) {
  float ms = 0.0f;
  for (std::size_t i = 0; i < n; ++i) ms += x[i] * x[i];
  const float r = 1.0f / std::sqrt(ms / static_cast<float>(n) + eps);
  for (std::size_t i = 0; i < n; ++i) out[i] = x[i] * r * gain[i];
}

void silu_mul_scalar(float* gate, const float* up, std::size_t n) {
  for (std::size_t j = 0; j < n; ++j) {
    gate[j] = gate[j] / (1.0f + fast_expf(-gate[j])) * up[j];
  }
}

// --- GEMM ------------------------------------------------------------------
// std::fma rounds once per step, exactly like one lane of a vector FMA,
// so this loop is the reference the SIMD tiers reproduce bit for bit:
// they only tile the same per-element chains into registers. B holds
// fp32 or binary16 elements; widen() turns either into the exact float
// the chain multiplies.

inline float widen(float v) { return v; }
inline float widen(std::uint16_t h) { return Half::from_bits(h).to_float(); }

template <class B>
void gemm_scalar(const float* a, std::size_t a_rs, std::size_t a_cs,
                 const B* b, float* c, std::size_t m, std::size_t k,
                 std::size_t n, bool accumulate) {
  for (std::size_t i = 0; i < m; ++i) {
    float* __restrict ci = c + i * n;
    if (!accumulate) std::fill(ci, ci + n, 0.0f);
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = a[i * a_rs + p * a_cs];
      const B* __restrict bp = b + p * n;
      for (std::size_t j = 0; j < n; ++j) {
        ci[j] = std::fma(aip, widen(bp[j]), ci[j]);
      }
    }
  }
}

/// The operands of one GEMM call, shared by the register-tiled tiers; B's
/// elements are float or binary16 bits.
template <class B>
struct GemmArgs {
  const float* a;
  std::size_t a_rs, a_cs;
  const B* b;
  float* c;
  std::size_t m, k, n;
  bool accumulate;
};

// Shared scalar tail for the x86 int8 kernels: identical integer math,
// used for output columns past the widest vector chunk.
inline std::int32_t dot_col_i8(const std::int8_t* qx, const std::int8_t* w,
                               std::size_t j, std::size_t blocks,
                               std::size_t out) {
  std::int32_t acc = 0;
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::int8_t* wb = w + (b * out + j) * 4;
    const std::int8_t* xb = qx + b * 4;
    acc += static_cast<std::int32_t>(xb[0]) * wb[0] +
           static_cast<std::int32_t>(xb[1]) * wb[1] +
           static_cast<std::int32_t>(xb[2]) * wb[2] +
           static_cast<std::int32_t>(xb[3]) * wb[3];
  }
  return acc;
}

#ifdef HPCGPT_X86

// ---------------------------------------------------------------------------
// AVX2 tier. The packed layout keeps 4-deep input quads contiguous per
// output column, so one 32-byte load covers 8 columns and the activation
// quad broadcasts into every lane. vpmaddubsw multiplies unsigned×signed
// bytes; routing the activation's sign onto the weight (llama.cpp's
// trick) keeps products exact, and pair sums are bounded by
// 2·127·127 = 32258 < 32767, so the int16 intermediate never saturates.
// Accumulators stay resident across the whole input loop — no horizontal
// reductions anywhere.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) inline __m256i quad_block_avx2(__m256i acc,
                                                               __m256i xq,
                                                               __m256i wv) {
  __m256i ax = _mm256_sign_epi8(xq, xq);
  __m256i sw = _mm256_sign_epi8(wv, xq);
  __m256i p16 = _mm256_maddubs_epi16(ax, sw);
  return _mm256_add_epi32(acc, _mm256_madd_epi16(p16, _mm256_set1_epi16(1)));
}

__attribute__((target("avx2"))) inline void store_scaled_avx2(
    float* y, __m256i dot, __m256 xs, const float* wscale) {
  __m256 f = _mm256_mul_ps(_mm256_cvtepi32_ps(dot), xs);
  _mm256_storeu_ps(y, _mm256_mul_ps(f, _mm256_loadu_ps(wscale)));
}

__attribute__((target("avx2"))) void gemv_i8_avx2(
    const std::int8_t* qx, const std::int8_t* w,
    const std::int32_t* /*colsum*/, const float* wscale, float xscale,
    std::size_t in, std::size_t out, float* y) {
  const std::size_t blocks = in / 4;
  const __m256 xs = _mm256_set1_ps(xscale);
  std::size_t j = 0;
  for (; j + 32 <= out; j += 32) {
    __m256i acc0 = _mm256_setzero_si256();
    __m256i acc1 = _mm256_setzero_si256();
    __m256i acc2 = _mm256_setzero_si256();
    __m256i acc3 = _mm256_setzero_si256();
    for (std::size_t b = 0; b < blocks; ++b) {
      std::int32_t xi;
      std::memcpy(&xi, qx + b * 4, 4);
      const __m256i xq = _mm256_set1_epi32(xi);
      const std::int8_t* wb = w + (b * out + j) * 4;
      acc0 = quad_block_avx2(
          acc0, xq, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wb)));
      acc1 = quad_block_avx2(
          acc1, xq,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wb + 32)));
      acc2 = quad_block_avx2(
          acc2, xq,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wb + 64)));
      acc3 = quad_block_avx2(
          acc3, xq,
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(wb + 96)));
    }
    store_scaled_avx2(y + j, acc0, xs, wscale + j);
    store_scaled_avx2(y + j + 8, acc1, xs, wscale + j + 8);
    store_scaled_avx2(y + j + 16, acc2, xs, wscale + j + 16);
    store_scaled_avx2(y + j + 24, acc3, xs, wscale + j + 24);
  }
  for (; j + 8 <= out; j += 8) {
    __m256i acc = _mm256_setzero_si256();
    for (std::size_t b = 0; b < blocks; ++b) {
      std::int32_t xi;
      std::memcpy(&xi, qx + b * 4, 4);
      acc = quad_block_avx2(acc, _mm256_set1_epi32(xi),
                            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                                w + (b * out + j) * 4)));
    }
    store_scaled_avx2(y + j, acc, xs, wscale + j);
  }
  for (; j < out; ++j) {
    y[j] = scale_dot(dot_col_i8(qx, w, j, blocks, out), xscale, wscale[j]);
  }
}

/// Features whose scaled queries (scores) or d_out·inv products (rank-1)
/// a kernel precomputes once per call. The SIMD scores chains also stop
/// at this bound: four accumulators cover the first ⌊min(hd, kMaxHd)/4⌋·4
/// features, and the remaining features fold into the first, in order.
constexpr std::size_t kMaxHd = 64;

static_assert(kAttnTileRows == 4, "the tile entries instantiate 1-4 rows");

// AVX2+FMA attention helpers. The K/V pages are feature-major (unit
// stride over positions), so the position loop vectorizes directly; the
// head_dim loop stays outer with one broadcast per feature.

__attribute__((target("avx2,fma"))) inline float hsum_avx2(__m256 acc) {
  __m128 lo = _mm_add_ps(_mm256_castps256_ps128(acc),
                         _mm256_extractf128_ps(acc, 1));
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

__attribute__((target("avx2,fma"))) void attn_scores_avx2(
    const float* q, float scale, const float* k, std::size_t hd,
    std::size_t stride, std::size_t len, float* probs) {
  // Pre-broadcast the scaled query once per call.
  __m256 qv[kMaxHd];
  const std::size_t hb = hd < kMaxHd ? hd : kMaxHd;
  for (std::size_t i = 0; i < hb; ++i) qv[i] = _mm256_set1_ps(q[i] * scale);
  std::size_t s = 0;
  for (; s + 8 <= len; s += 8) {
    // Four independent accumulators hide the FMA latency chain.
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps();
    __m256 a3 = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 4 <= hb; i += 4) {
      const float* kt = k + i * stride + s;
      a0 = _mm256_fmadd_ps(qv[i], _mm256_loadu_ps(kt), a0);
      a1 = _mm256_fmadd_ps(qv[i + 1], _mm256_loadu_ps(kt + stride), a1);
      a2 = _mm256_fmadd_ps(qv[i + 2], _mm256_loadu_ps(kt + 2 * stride), a2);
      a3 = _mm256_fmadd_ps(qv[i + 3], _mm256_loadu_ps(kt + 3 * stride), a3);
    }
    for (; i < hd; ++i) {
      a0 = _mm256_fmadd_ps(i < kMaxHd ? qv[i] : _mm256_set1_ps(q[i] * scale),
                           _mm256_loadu_ps(k + i * stride + s), a0);
    }
    _mm256_storeu_ps(
        probs + s,
        _mm256_add_ps(_mm256_add_ps(a0, a1), _mm256_add_ps(a2, a3)));
  }
  for (; s < len; ++s) {
    float acc = 0.0f;
    for (std::size_t i = 0; i < hd; ++i) {
      acc += (q[i] * scale) * k[i * stride + s];
    }
    probs[s] = acc;
  }
}

// Paged AVX2 attention. Pages are kKvPageSize (16) positions, so an
// 8-wide chunk grid (s = 0, 8, 16, …) lines up with page starts: every
// full page is exactly two 8-chunks and only the final partial page has
// a scalar tail. The scores pass runs the block kernel per page; the
// values pass carries its vector accumulators across pages and does the
// hsum + scalar tail once at the end. A tile runs its rows one at a time
// through the one-row code, as the scalar tier does. The rank-1
// update is the scalar tier's loop: one multiply-add per element, so
// vectorizing it leaves its rounding alone.

__attribute__((target("avx2,fma"))) void attn_values_row_avx2(
    const float* probs, float inv, const float* const* pages,
    std::size_t page_off, std::size_t hd, std::size_t len, float* out) {
  const std::size_t full = len / kKvPageSize;  // fully-populated pages
  const std::size_t rem = len - full * kKvPageSize;
  std::size_t i = 0;
  for (; i + 2 <= hd; i += 2) {
    const std::size_t off = page_off + i * kKvPageSize;
    __m256 a0 = _mm256_setzero_ps();
    __m256 a1 = _mm256_setzero_ps();
    for (std::size_t p = 0; p < full; ++p) {
      const float* vt = pages[p] + off;
      const float* pr = probs + p * kKvPageSize;
      const __m256 p0 = _mm256_loadu_ps(pr);
      a0 = _mm256_fmadd_ps(p0, _mm256_loadu_ps(vt), a0);
      a1 = _mm256_fmadd_ps(p0, _mm256_loadu_ps(vt + kKvPageSize), a1);
      const __m256 p1 = _mm256_loadu_ps(pr + 8);
      a0 = _mm256_fmadd_ps(p1, _mm256_loadu_ps(vt + 8), a0);
      a1 = _mm256_fmadd_ps(p1, _mm256_loadu_ps(vt + kKvPageSize + 8), a1);
    }
    const float* vt = rem ? pages[full] + off : nullptr;
    const float* pr = probs + full * kKvPageSize;
    std::size_t s = 0;
    for (; s + 8 <= rem; s += 8) {
      const __m256 pv = _mm256_loadu_ps(pr + s);
      a0 = _mm256_fmadd_ps(pv, _mm256_loadu_ps(vt + s), a0);
      a1 = _mm256_fmadd_ps(pv, _mm256_loadu_ps(vt + kKvPageSize + s), a1);
    }
    float sum0 = hsum_avx2(a0);
    float sum1 = hsum_avx2(a1);
    for (; s < rem; ++s) {
      sum0 += pr[s] * vt[s];
      sum1 += pr[s] * vt[kKvPageSize + s];
    }
    out[i] = sum0 * inv;
    out[i + 1] = sum1 * inv;
  }
  for (; i < hd; ++i) {
    const std::size_t off = page_off + i * kKvPageSize;
    __m256 acc = _mm256_setzero_ps();
    for (std::size_t p = 0; p < full; ++p) {
      const float* vt = pages[p] + off;
      const float* pr = probs + p * kKvPageSize;
      acc = _mm256_fmadd_ps(_mm256_loadu_ps(pr), _mm256_loadu_ps(vt), acc);
      acc = _mm256_fmadd_ps(_mm256_loadu_ps(pr + 8), _mm256_loadu_ps(vt + 8),
                            acc);
    }
    const float* vt = rem ? pages[full] + off : nullptr;
    const float* pr = probs + full * kKvPageSize;
    std::size_t s = 0;
    for (; s + 8 <= rem; s += 8) {
      acc = _mm256_fmadd_ps(_mm256_loadu_ps(pr + s), _mm256_loadu_ps(vt + s),
                            acc);
    }
    float sum = hsum_avx2(acc);
    for (; s < rem; ++s) sum += pr[s] * vt[s];
    out[i] = sum * inv;
  }
}

__attribute__((target("avx2,fma"))) void attn_scores_paged_avx2(
    const float* q, std::size_t q_stride, float scale,
    const float* const* pages, std::size_t page_off, std::size_t hd,
    std::size_t len0, std::size_t rows, float* probs,
    std::size_t probs_stride) {
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t len = len0 + r;
    for (std::size_t p = 0; p * kKvPageSize < len; ++p) {
      const std::size_t base = p * kKvPageSize;
      const std::size_t n = std::min(kKvPageSize, len - base);
      attn_scores_avx2(q + r * q_stride, scale, pages[p] + page_off, hd,
                       kKvPageSize, n, probs + r * probs_stride + base);
    }
  }
}

__attribute__((target("avx2,fma"))) void attn_values_paged_avx2(
    const float* probs, std::size_t probs_stride, const float* inv,
    const float* const* pages, std::size_t page_off, std::size_t hd,
    std::size_t len0, std::size_t rows, float* out, std::size_t out_stride) {
  for (std::size_t r = 0; r < rows; ++r) {
    attn_values_row_avx2(probs + r * probs_stride, inv[r], pages, page_off,
                         hd, len0 + r, out + r * out_stride);
  }
}

/// Vector fast_expf: the same clamp / truncate / degree-7 polynomial /
/// exponent-bit-trick sequence as hpcgpt::fast_expf, FMA-contracted.
__attribute__((target("avx2,fma"))) inline __m256 fast_expf_avx2(__m256 x) {
  const __m256 z = _mm256_min_ps(
      _mm256_max_ps(_mm256_mul_ps(x, _mm256_set1_ps(1.4426950408889634f)),
                    _mm256_set1_ps(-126.0f)),
      _mm256_set1_ps(126.0f));
  const __m256i ei = _mm256_cvttps_epi32(z);
  const __m256 f = _mm256_sub_ps(z, _mm256_cvtepi32_ps(ei));
  __m256 p = _mm256_set1_ps(1.52527338e-5f);
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.54035304e-4f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.33335581e-3f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(9.61812911e-3f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(5.55041087e-2f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(2.40226507e-1f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(6.93147181e-1f));
  p = _mm256_fmadd_ps(p, f, _mm256_set1_ps(1.0f));
  const __m256i bits = _mm256_slli_epi32(
      _mm256_add_epi32(ei, _mm256_set1_epi32(127)), 23);
  return _mm256_mul_ps(p, _mm256_castsi256_ps(bits));
}

__attribute__((target("avx2,fma"))) float softmax_row_avx2(float* probs,
                                                           std::size_t len) {
  float max_score = probs[0];
  std::size_t s = 0;
  if (len >= 8) {
    __m256 vmax = _mm256_loadu_ps(probs);
    for (s = 8; s + 8 <= len; s += 8) {
      vmax = _mm256_max_ps(vmax, _mm256_loadu_ps(probs + s));
    }
    __m128 m = _mm_max_ps(_mm256_castps256_ps128(vmax),
                          _mm256_extractf128_ps(vmax, 1));
    m = _mm_max_ps(m, _mm_movehl_ps(m, m));
    m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
    max_score = _mm_cvtss_f32(m);
  }
  for (; s < len; ++s) max_score = std::max(max_score, probs[s]);

  const __m256 vm = _mm256_set1_ps(max_score);
  __m256 vsum = _mm256_setzero_ps();
  std::size_t t = 0;
  for (; t + 8 <= len; t += 8) {
    const __m256 e = fast_expf_avx2(_mm256_sub_ps(_mm256_loadu_ps(probs + t), vm));
    _mm256_storeu_ps(probs + t, e);
    vsum = _mm256_add_ps(vsum, e);
  }
  __m128 sl = _mm_add_ps(_mm256_castps256_ps128(vsum),
                         _mm256_extractf128_ps(vsum, 1));
  sl = _mm_add_ps(sl, _mm_movehl_ps(sl, sl));
  sl = _mm_add_ss(sl, _mm_shuffle_ps(sl, sl, 1));
  float denom = _mm_cvtss_f32(sl);
  for (; t < len; ++t) {
    const float e = fast_expf(probs[t] - max_score);
    probs[t] = e;
    denom += e;
  }
  return 1.0f / denom;
}

__attribute__((target("avx2,fma,f16c"))) void add_half_rows_f16c(
    const std::uint16_t* a, const std::uint16_t* b, std::size_t n,
    float* out) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 av = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256 bv = _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    _mm256_storeu_ps(out + i, _mm256_add_ps(av, bv));
  }
  for (; i < n; ++i) {
    out[i] = Half::from_bits(a[i]).to_float() + Half::from_bits(b[i]).to_float();
  }
}

__attribute__((target("avx2,fma"))) void rmsnorm_row_avx2(const float* x,
                                                          const float* gain,
                                                          std::size_t n,
                                                          float eps,
                                                          float* out) {
  __m256 acc = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    acc = _mm256_fmadd_ps(v, v, acc);
  }
  __m128 lo = _mm_add_ps(_mm256_castps256_ps128(acc),
                         _mm256_extractf128_ps(acc, 1));
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_movehdup_ps(lo));
  float ms = _mm_cvtss_f32(lo);
  for (; i < n; ++i) ms += x[i] * x[i];
  const float r = 1.0f / std::sqrt(ms / static_cast<float>(n) + eps);
  const __m256 vr = _mm256_set1_ps(r);
  i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_mul_ps(_mm256_loadu_ps(x + i), vr),
                               _mm256_loadu_ps(gain + i)));
  }
  for (; i < n; ++i) out[i] = x[i] * r * gain[i];
}

__attribute__((target("avx2,fma"))) void silu_mul_avx2(float* gate,
                                                       const float* up,
                                                       std::size_t n) {
  const __m256 one = _mm256_set1_ps(1.0f);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 g = _mm256_loadu_ps(gate + j);
    const __m256 e = fast_expf_avx2(_mm256_sub_ps(_mm256_setzero_ps(), g));
    const __m256 s = _mm256_div_ps(g, _mm256_add_ps(one, e));
    _mm256_storeu_ps(gate + j, _mm256_mul_ps(s, _mm256_loadu_ps(up + j)));
  }
  for (; j < n; ++j) {
    gate[j] = gate[j] / (1.0f + fast_expf(-gate[j])) * up[j];
  }
}

// AVX2+FMA GEMM tile (run by gemm_tiled below): 6 rows × 2 vectors of
// C stay in 12 of the 16 YMM registers for the whole k loop, beside the
// two B vectors and one broadcast. The unroll pragmas here and in the
// AVX-512 tile make GCC unroll the tile loops before scalar replacement;
// without them it keeps `acc` on the stack and stores every accumulator
// on each k step.
alignas(32) constexpr std::int32_t kLaneMask8[16] = {-1, -1, -1, -1, -1, -1,
                                                     -1, -1, 0,  0,  0,  0,
                                                     0,  0,  0,  0};

#define HPCGPT_AVX2_GEMM_TARGET "avx2,fma,f16c"

struct Avx2Gemm {
  static constexpr std::size_t kWidth = 8;
  static constexpr int kRows = 6;
  static constexpr int kVecs = 2;

  /// Eight B elements at p, widened to float.
  __attribute__((target(HPCGPT_AVX2_GEMM_TARGET))) static __m256 load(
      const float* p) {
    return _mm256_loadu_ps(p);
  }
  __attribute__((target(HPCGPT_AVX2_GEMM_TARGET))) static __m256 load(
      const std::uint16_t* p) {
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }

  /// The first `last` (1..8) B elements at p, widened to float; the lanes
  /// past them read as zero. AVX2 cannot mask a 16-bit load, so a partial
  /// binary16 vector is copied into a zeroed chunk first: nothing reads
  /// past B.
  __attribute__((target(HPCGPT_AVX2_GEMM_TARGET))) static __m256 load_tail(
      const float* p, __m256i tail, std::size_t /*last*/) {
    return _mm256_maskload_ps(p, tail);
  }
  __attribute__((target(HPCGPT_AVX2_GEMM_TARGET))) static __m256 load_tail(
      const std::uint16_t* p, __m256i /*tail*/, std::size_t last) {
    if (last == kWidth) return load(p);
    alignas(16) std::uint16_t chunk[kWidth] = {};
    std::memcpy(chunk, p, last * sizeof(std::uint16_t));
    return load(chunk);
  }

  /// C rows [i, i+MR) × columns [j, j + 8·NV): the last vector holds
  /// `last` (1..8) columns and is read and written masked.
  template <int MR, int NV, class B>
  __attribute__((target(HPCGPT_AVX2_GEMM_TARGET))) static void tile(
      const GemmArgs<B>& g, std::size_t i, std::size_t j, std::size_t last) {
    const std::size_t n = g.n, k = g.k, a_rs = g.a_rs, a_cs = g.a_cs;
    const __m256i tail = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(kLaneMask8 + 8 - last));
    float* c = g.c + i * n + j;
    __m256 acc[MR][NV] = {};
    if (g.accumulate) {
#pragma GCC unroll 8
      for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 8
        for (int v = 0; v + 1 < NV; ++v) {
          acc[r][v] = _mm256_loadu_ps(c + r * n + 8 * v);
        }
        acc[r][NV - 1] = _mm256_maskload_ps(c + r * n + 8 * (NV - 1), tail);
      }
    }
    const float* a = g.a + i * a_rs;
    const B* b = g.b + j;
    for (std::size_t p = 0; p < k; ++p, a += a_cs, b += n) {
      __m256 bv[NV];
#pragma GCC unroll 8
      for (int v = 0; v + 1 < NV; ++v) bv[v] = load(b + 8 * v);
      bv[NV - 1] = load_tail(b + 8 * (NV - 1), tail, last);
#pragma GCC unroll 8
      for (int r = 0; r < MR; ++r) {
        const __m256 ar = _mm256_broadcast_ss(a + r * a_rs);
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) {
          acc[r][v] = _mm256_fmadd_ps(ar, bv[v], acc[r][v]);
        }
      }
    }
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 8
      for (int v = 0; v + 1 < NV; ++v) {
        _mm256_storeu_ps(c + r * n + 8 * v, acc[r][v]);
      }
      _mm256_maskstore_ps(c + r * n + 8 * (NV - 1), tail, acc[r][NV - 1]);
    }
  }
};

// ---------------------------------------------------------------------------
// AVX-512 VNNI tier. vpdpbusd wants unsigned×signed bytes; biasing the
// activation quad into offset-binary (qx XOR 0x80 == qx + 128 as u8)
// makes it unsigned, and the bias contributes exactly 128·Σw per column,
// which pack time precomputed as colsum[j] — the epilogue subtracts it
// with one shift+sub per 16 columns. All intermediates are exact int32,
// so this tier reproduces the scalar integers bit for bit.
// ---------------------------------------------------------------------------

#define HPCGPT_AVX512_TARGET "avx512f,avx512bw,avx512vl,avx512vnni"

// GCC 12 defines the unmasked forms of several AVX-512 intrinsics
// (max/min, slli, the cvt family, and the 256-bit extract behind
// _mm512_reduce_*) with a self-initialized `__Y` merge source, which
// -Wmaybe-uninitialized reports wherever they inline. Their zero-masking
// forms with every lane enabled are the same instructions and read no
// such value, so this tier calls those, and reduces through the two
// helpers below, which keep _mm512_reduce_{add,max}_ps's order.
constexpr __mmask16 kAll16 = 0xFFFF;

__attribute__((target(HPCGPT_AVX512_TARGET))) inline __m256 half_avx512(
    __m512 v, bool upper) {
  const __m512d d = _mm512_castps_pd(v);
  return _mm256_castpd_ps(upper ? _mm512_maskz_extractf64x4_pd(0xF, d, 1)
                                : _mm512_maskz_extractf64x4_pd(0xF, d, 0));
}

__attribute__((target(HPCGPT_AVX512_TARGET))) inline float reduce_add_avx512(
    __m512 v) {
  const __m256 s8 = _mm256_add_ps(half_avx512(v, true), half_avx512(v, false));
  const __m128 s4 =
      _mm_add_ps(_mm256_extractf128_ps(s8, 1), _mm256_extractf128_ps(s8, 0));
  const __m128 s2 =
      _mm_add_ps(s4, _mm_shuffle_ps(s4, s4, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_cvtss_f32(s2) + _mm_cvtss_f32(_mm_shuffle_ps(s2, s2, 1));
}

__attribute__((target(HPCGPT_AVX512_TARGET))) inline float reduce_max_avx512(
    __m512 v) {
  const __m256 m8 = _mm256_max_ps(half_avx512(v, true), half_avx512(v, false));
  const __m128 m4 =
      _mm_max_ps(_mm256_extractf128_ps(m8, 1), _mm256_extractf128_ps(m8, 0));
  const __m128 m2 =
      _mm_max_ps(m4, _mm_shuffle_ps(m4, m4, _MM_SHUFFLE(1, 0, 3, 2)));
  return _mm_cvtss_f32(
      _mm_max_ps(m2, _mm_shuffle_ps(m2, m2, _MM_SHUFFLE(0, 1, 0, 1))));
}

__attribute__((target(HPCGPT_AVX512_TARGET))) inline void store_scaled_avx512(
    float* y, __m512i biased, const std::int32_t* colsum, __m512 xs,
    const float* wscale) {
  __m512i corr = _mm512_maskz_slli_epi32(
      kAll16, _mm512_loadu_si512(reinterpret_cast<const void*>(colsum)), 7);
  __m512 f = _mm512_mul_ps(
      _mm512_maskz_cvtepi32_ps(kAll16, _mm512_sub_epi32(biased, corr)), xs);
  _mm512_storeu_ps(y, _mm512_mul_ps(f, _mm512_loadu_ps(wscale)));
}

__attribute__((target(HPCGPT_AVX512_TARGET))) void gemv_i8_avx512(
    const std::int8_t* qx, const std::int8_t* w, const std::int32_t* colsum,
    const float* wscale, float xscale, std::size_t in, std::size_t out,
    float* y) {
  const std::size_t blocks = in / 4;
  // Bias the activation once per call, not per column tile.
  alignas(64) std::uint8_t bx_stack[1024];
  std::uint8_t* bx = bx_stack;
  std::uint8_t* heap = nullptr;
  if (in > sizeof(bx_stack)) {
    heap = static_cast<std::uint8_t*>(::operator new(in));
    bx = heap;
  }
  // `in` is padded to a multiple of 16, so the whole bias pass vectorizes.
  const __m128i bias = _mm_set1_epi8(static_cast<char>(0x80));
  for (std::size_t i = 0; i < in; i += 16) {
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(bx + i),
        _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(qx + i)), bias));
  }
  const __m512 xs = _mm512_set1_ps(xscale);
  std::size_t j = 0;
  for (; j + 64 <= out; j += 64) {
    __m512i acc0 = _mm512_setzero_si512();
    __m512i acc1 = _mm512_setzero_si512();
    __m512i acc2 = _mm512_setzero_si512();
    __m512i acc3 = _mm512_setzero_si512();
    for (std::size_t b = 0; b < blocks; ++b) {
      std::int32_t xi;
      std::memcpy(&xi, bx + b * 4, 4);
      const __m512i xq = _mm512_set1_epi32(xi);
      const std::int8_t* wb = w + (b * out + j) * 4;
      acc0 = _mm512_dpbusd_epi32(
          acc0, xq, _mm512_loadu_si512(reinterpret_cast<const void*>(wb)));
      acc1 = _mm512_dpbusd_epi32(
          acc1, xq,
          _mm512_loadu_si512(reinterpret_cast<const void*>(wb + 64)));
      acc2 = _mm512_dpbusd_epi32(
          acc2, xq,
          _mm512_loadu_si512(reinterpret_cast<const void*>(wb + 128)));
      acc3 = _mm512_dpbusd_epi32(
          acc3, xq,
          _mm512_loadu_si512(reinterpret_cast<const void*>(wb + 192)));
    }
    store_scaled_avx512(y + j, acc0, colsum + j, xs, wscale + j);
    store_scaled_avx512(y + j + 16, acc1, colsum + j + 16, xs, wscale + j + 16);
    store_scaled_avx512(y + j + 32, acc2, colsum + j + 32, xs, wscale + j + 32);
    store_scaled_avx512(y + j + 48, acc3, colsum + j + 48, xs, wscale + j + 48);
  }
  for (; j + 16 <= out; j += 16) {
    __m512i acc = _mm512_setzero_si512();
    for (std::size_t b = 0; b < blocks; ++b) {
      std::int32_t xi;
      std::memcpy(&xi, bx + b * 4, 4);
      acc = _mm512_dpbusd_epi32(acc, _mm512_set1_epi32(xi),
                                _mm512_loadu_si512(reinterpret_cast<const void*>(
                                    w + (b * out + j) * 4)));
    }
    store_scaled_avx512(y + j, acc, colsum + j, xs, wscale + j);
  }
  for (; j < out; ++j) {
    y[j] = scale_dot(dot_col_i8(qx, w, j, blocks, out), xscale, wscale[j]);
  }
  ::operator delete(heap);
}

/// 16 binary16 values widened to fp32 (exact).
__attribute__((target(HPCGPT_AVX512_TARGET))) inline __m512 load_half16_avx512(
    const std::uint16_t* p) {
  return _mm512_maskz_cvtph_ps(
      kAll16, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

// AVX-512 attention helpers: 16-wide with masked tails, so every length
// takes the vector path and one page is exactly one 16-position chunk.
// A tile loads each K/V page once for all its rows; a row's lanes past
// its own length are masked out of its stores and accumulations, so it
// gets the bits of a tile of one.

/// Lanes [0, min(n, 16)) of a 16-wide chunk.
inline __mmask16 tail_mask16(std::size_t n) {
  return n >= 16 ? static_cast<__mmask16>(0xFFFF)
                 : static_cast<__mmask16>((1u << n) - 1u);
}

template <std::size_t R>
__attribute__((target(HPCGPT_AVX512_TARGET))) void scores_rows_avx512(
    const float* q, std::size_t q_stride, float scale,
    const float* const* pages, std::size_t page_off, std::size_t hd,
    std::size_t len0, float* probs, std::size_t probs_stride) {
  // Scale the queries once per call; the FMAs broadcast them from memory.
  const std::size_t hb = hd < kMaxHd ? hd : kMaxHd;
  float qs[R][kMaxHd];
  for (std::size_t r = 0; r < R; ++r) {
    for (std::size_t i = 0; i < hb; ++i) qs[r][i] = q[r * q_stride + i] * scale;
  }
  const std::size_t len_max = len0 + R - 1;
  for (std::size_t s = 0; s < len_max; s += kKvPageSize) {
    const float* k = pages[s / kKvPageSize] + page_off;
    const __mmask16 m = tail_mask16(len_max - s);
    // Four independent accumulators per row: a single chain serializes on
    // the 4-cycle FMA latency and caps the loop at a quarter of throughput.
    __m512 a[R][4];
    for (std::size_t r = 0; r < R; ++r) {
      for (__m512& acc : a[r]) acc = _mm512_setzero_ps();
    }
    std::size_t i = 0;
    for (; i + 4 <= hb; i += 4) {
      const float* kt = k + i * kKvPageSize;
      const __m512 k0 = _mm512_maskz_loadu_ps(m, kt);
      const __m512 k1 = _mm512_maskz_loadu_ps(m, kt + kKvPageSize);
      const __m512 k2 = _mm512_maskz_loadu_ps(m, kt + 2 * kKvPageSize);
      const __m512 k3 = _mm512_maskz_loadu_ps(m, kt + 3 * kKvPageSize);
      for (std::size_t r = 0; r < R; ++r) {
        a[r][0] = _mm512_fmadd_ps(_mm512_set1_ps(qs[r][i]), k0, a[r][0]);
        a[r][1] = _mm512_fmadd_ps(_mm512_set1_ps(qs[r][i + 1]), k1, a[r][1]);
        a[r][2] = _mm512_fmadd_ps(_mm512_set1_ps(qs[r][i + 2]), k2, a[r][2]);
        a[r][3] = _mm512_fmadd_ps(_mm512_set1_ps(qs[r][i + 3]), k3, a[r][3]);
      }
    }
    for (; i < hd; ++i) {
      const __m512 ki = _mm512_maskz_loadu_ps(m, k + i * kKvPageSize);
      for (std::size_t r = 0; r < R; ++r) {
        const float qi = i < kMaxHd ? qs[r][i] : q[r * q_stride + i] * scale;
        a[r][0] = _mm512_fmadd_ps(_mm512_set1_ps(qi), ki, a[r][0]);
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      const std::size_t len = len0 + r;
      if (len <= s) continue;
      _mm512_mask_storeu_ps(
          probs + r * probs_stride + s, tail_mask16(len - s),
          _mm512_add_ps(_mm512_add_ps(a[r][0], a[r][1]),
                        _mm512_add_ps(a[r][2], a[r][3])));
    }
  }
}

__attribute__((target(HPCGPT_AVX512_TARGET))) void attn_scores_paged_avx512(
    const float* q, std::size_t q_stride, float scale,
    const float* const* pages, std::size_t page_off, std::size_t hd,
    std::size_t len0, std::size_t rows, float* probs,
    std::size_t probs_stride) {
  static constexpr decltype(&scores_rows_avx512<1>) kByRows[] = {
      scores_rows_avx512<1>, scores_rows_avx512<2>, scores_rows_avx512<3>,
      scores_rows_avx512<4>};
  kByRows[rows - 1](q, q_stride, scale, pages, page_off, hd, len0, probs,
                    probs_stride);
}

template <std::size_t R>
__attribute__((target(HPCGPT_AVX512_TARGET))) void values_rows_avx512(
    const float* probs, std::size_t probs_stride, const float* inv,
    const float* const* pages, std::size_t page_off, std::size_t hd,
    std::size_t len0, float* out, std::size_t out_stride) {
  const std::size_t shared = len0 / kKvPageSize;  // pages every row fills
  const std::size_t n_pages = (len0 + R - 1 + kKvPageSize - 1) / kKvPageSize;
  // Four features at a time, one accumulator each per row, carried across
  // pages.
  std::size_t i = 0;
  for (; i + 4 <= hd; i += 4) {
    const std::size_t off = page_off + i * kKvPageSize;
    __m512 a[R][4];
    for (std::size_t r = 0; r < R; ++r) {
      for (__m512& acc : a[r]) acc = _mm512_setzero_ps();
    }
    for (std::size_t p = 0; p < shared; ++p) {
      const float* vt = pages[p] + off;
      const __m512 v0 = _mm512_loadu_ps(vt);
      const __m512 v1 = _mm512_loadu_ps(vt + kKvPageSize);
      const __m512 v2 = _mm512_loadu_ps(vt + 2 * kKvPageSize);
      const __m512 v3 = _mm512_loadu_ps(vt + 3 * kKvPageSize);
      for (std::size_t r = 0; r < R; ++r) {
        const __m512 pv =
            _mm512_loadu_ps(probs + r * probs_stride + p * kKvPageSize);
        a[r][0] = _mm512_fmadd_ps(pv, v0, a[r][0]);
        a[r][1] = _mm512_fmadd_ps(pv, v1, a[r][1]);
        a[r][2] = _mm512_fmadd_ps(pv, v2, a[r][2]);
        a[r][3] = _mm512_fmadd_ps(pv, v3, a[r][3]);
      }
    }
    // The pages some rows end inside: each row masks both operands to its
    // own length, as a tile of one does.
    for (std::size_t p = shared; p < n_pages; ++p) {
      const float* vt = pages[p] + off;
      for (std::size_t r = 0; r < R; ++r) {
        const std::size_t len = len0 + r;
        if (len <= p * kKvPageSize) continue;
        const __mmask16 m = tail_mask16(len - p * kKvPageSize);
        const __m512 pv = _mm512_maskz_loadu_ps(
            m, probs + r * probs_stride + p * kKvPageSize);
        for (std::size_t c = 0; c < 4; ++c) {
          a[r][c] = _mm512_fmadd_ps(
              pv, _mm512_maskz_loadu_ps(m, vt + c * kKvPageSize), a[r][c]);
        }
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        out[r * out_stride + i + c] = reduce_add_avx512(a[r][c]) * inv[r];
      }
    }
  }
  for (; i < hd; ++i) {
    const std::size_t off = page_off + i * kKvPageSize;
    __m512 a[R];
    for (std::size_t r = 0; r < R; ++r) a[r] = _mm512_setzero_ps();
    for (std::size_t p = 0; p < shared; ++p) {
      const __m512 v = _mm512_loadu_ps(pages[p] + off);
      for (std::size_t r = 0; r < R; ++r) {
        a[r] = _mm512_fmadd_ps(
            _mm512_loadu_ps(probs + r * probs_stride + p * kKvPageSize), v,
            a[r]);
      }
    }
    for (std::size_t p = shared; p < n_pages; ++p) {
      for (std::size_t r = 0; r < R; ++r) {
        const std::size_t len = len0 + r;
        if (len <= p * kKvPageSize) continue;
        const __mmask16 m = tail_mask16(len - p * kKvPageSize);
        a[r] = _mm512_fmadd_ps(
            _mm512_maskz_loadu_ps(m,
                                  probs + r * probs_stride + p * kKvPageSize),
            _mm512_maskz_loadu_ps(m, pages[p] + off), a[r]);
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      out[r * out_stride + i] = reduce_add_avx512(a[r]) * inv[r];
    }
  }
}

__attribute__((target(HPCGPT_AVX512_TARGET))) void attn_values_paged_avx512(
    const float* probs, std::size_t probs_stride, const float* inv,
    const float* const* pages, std::size_t page_off, std::size_t hd,
    std::size_t len0, std::size_t rows, float* out, std::size_t out_stride) {
  static constexpr decltype(&values_rows_avx512<1>) kByRows[] = {
      values_rows_avx512<1>, values_rows_avx512<2>, values_rows_avx512<3>,
      values_rows_avx512<4>};
  kByRows[rows - 1](probs, probs_stride, inv, pages, page_off, hd, len0, out,
                    out_stride);
}

template <std::size_t R>
__attribute__((target(HPCGPT_AVX512_TARGET))) void rank1_rows_avx512(
    const float* ds, const float* e, std::size_t p_stride, const float* q,
    const float* d_out, std::size_t q_stride, const float* inv,
    float* const* pages, std::size_t k_off, std::size_t v_off,
    std::size_t hd, std::size_t len0) {
  const std::size_t len_max = len0 + R - 1;
  float oi[R][kMaxHd];
  for (std::size_t i0 = 0; i0 < hd; i0 += kMaxHd) {
    const std::size_t nb = std::min(kMaxHd, hd - i0);
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t i = 0; i < nb; ++i) {
        oi[r][i] = d_out[r * q_stride + i0 + i] * inv[r];
      }
    }
    for (std::size_t s = 0; s < len_max; s += kKvPageSize) {
      float* page = pages[s / kKvPageSize];
      const __mmask16 m_all = tail_mask16(len_max - s);
      // Row r's lanes past its length keep their value (masked FMA).
      __mmask16 m[R];
      __m512 dsv[R];
      __m512 ev[R];
      for (std::size_t r = 0; r < R; ++r) {
        const std::size_t len = len0 + r;
        m[r] = len > s ? tail_mask16(len - s) : static_cast<__mmask16>(0);
        dsv[r] = _mm512_maskz_loadu_ps(m[r], ds + r * p_stride + s);
        ev[r] = _mm512_maskz_loadu_ps(m[r], e + r * p_stride + s);
      }
      for (std::size_t i = 0; i < nb; ++i) {
        float* dk = page + k_off + (i0 + i) * kKvPageSize;
        float* dv = page + v_off + (i0 + i) * kKvPageSize;
        __m512 kv = _mm512_maskz_loadu_ps(m_all, dk);
        __m512 vv = _mm512_maskz_loadu_ps(m_all, dv);
        for (std::size_t r = 0; r < R; ++r) {
          kv = _mm512_mask3_fmadd_ps(
              dsv[r], _mm512_set1_ps(q[r * q_stride + i0 + i]), kv, m[r]);
          vv = _mm512_mask3_fmadd_ps(ev[r], _mm512_set1_ps(oi[r][i]), vv,
                                     m[r]);
        }
        _mm512_mask_storeu_ps(dk, m_all, kv);
        _mm512_mask_storeu_ps(dv, m_all, vv);
      }
    }
  }
}

__attribute__((target(HPCGPT_AVX512_TARGET))) void attn_rank1_paged_avx512(
    const float* ds, const float* e, std::size_t p_stride, const float* q,
    const float* d_out, std::size_t q_stride, const float* inv,
    float* const* pages, std::size_t k_off, std::size_t v_off,
    std::size_t hd, std::size_t len0, std::size_t rows) {
  static constexpr decltype(&rank1_rows_avx512<1>) kByRows[] = {
      rank1_rows_avx512<1>, rank1_rows_avx512<2>, rank1_rows_avx512<3>,
      rank1_rows_avx512<4>};
  kByRows[rows - 1](ds, e, p_stride, q, d_out, q_stride, inv, pages, k_off,
                    v_off, hd, len0);
}

/// 16-wide fast_expf (same sequence as hpcgpt::fast_expf, FMA-contracted).
__attribute__((target(HPCGPT_AVX512_TARGET))) inline __m512
fast_expf_avx512(__m512 x) {
  const __m512 z = _mm512_maskz_min_ps(
      kAll16,
      _mm512_maskz_max_ps(
          kAll16, _mm512_mul_ps(x, _mm512_set1_ps(1.4426950408889634f)),
          _mm512_set1_ps(-126.0f)),
      _mm512_set1_ps(126.0f));
  const __m512i ei = _mm512_maskz_cvttps_epi32(kAll16, z);
  const __m512 f = _mm512_sub_ps(z, _mm512_maskz_cvtepi32_ps(kAll16, ei));
  __m512 p = _mm512_set1_ps(1.52527338e-5f);
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(1.54035304e-4f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(1.33335581e-3f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(9.61812911e-3f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(5.55041087e-2f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(2.40226507e-1f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(6.93147181e-1f));
  p = _mm512_fmadd_ps(p, f, _mm512_set1_ps(1.0f));
  const __m512i bits = _mm512_maskz_slli_epi32(
      kAll16, _mm512_add_epi32(ei, _mm512_set1_epi32(127)), 23);
  return _mm512_mul_ps(p, _mm512_castsi512_ps(bits));
}

__attribute__((target(HPCGPT_AVX512_TARGET))) float softmax_row_avx512(
    float* probs, std::size_t len) {
  const __m512 ninf = _mm512_set1_ps(-1e30f);
  __m512 vmax = ninf;
  for (std::size_t s = 0; s < len; s += 16) {
    const __mmask16 m = tail_mask16(len - s);
    vmax = _mm512_maskz_max_ps(kAll16, vmax,
                               _mm512_mask_loadu_ps(ninf, m, probs + s));
  }
  const float max_score = reduce_max_avx512(vmax);

  const __m512 vm = _mm512_set1_ps(max_score);
  __m512 vsum = _mm512_setzero_ps();
  for (std::size_t s = 0; s < len; s += 16) {
    const __mmask16 m = tail_mask16(len - s);
    const __m512 e = _mm512_maskz_mov_ps(
        m, fast_expf_avx512(
               _mm512_sub_ps(_mm512_maskz_loadu_ps(m, probs + s), vm)));
    _mm512_mask_storeu_ps(probs + s, m, e);
    vsum = _mm512_add_ps(vsum, e);
  }
  return 1.0f / reduce_add_avx512(vsum);
}

__attribute__((target(HPCGPT_AVX512_TARGET ",f16c,fma"))) void
add_half_rows_avx512(const std::uint16_t* a, const std::uint16_t* b,
                     std::size_t n, float* out) {
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    _mm512_storeu_ps(out + i, _mm512_add_ps(load_half16_avx512(a + i),
                                            load_half16_avx512(b + i)));
  }
  for (; i < n; ++i) {
    out[i] = Half::from_bits(a[i]).to_float() + Half::from_bits(b[i]).to_float();
  }
}

__attribute__((target(HPCGPT_AVX512_TARGET))) void rmsnorm_row_avx512(
    const float* x, const float* gain, std::size_t n, float eps, float* out) {
  __m512 acc = _mm512_setzero_ps();
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 m = n - i >= 16
                            ? static_cast<__mmask16>(0xffff)
                            : static_cast<__mmask16>((1u << (n - i)) - 1);
    const __m512 v = _mm512_maskz_loadu_ps(m, x + i);
    acc = _mm512_fmadd_ps(v, v, acc);
  }
  const float ms = reduce_add_avx512(acc);
  const float r = 1.0f / std::sqrt(ms / static_cast<float>(n) + eps);
  const __m512 vr = _mm512_set1_ps(r);
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 m = n - i >= 16
                            ? static_cast<__mmask16>(0xffff)
                            : static_cast<__mmask16>((1u << (n - i)) - 1);
    const __m512 v = _mm512_maskz_loadu_ps(m, x + i);
    const __m512 g = _mm512_maskz_loadu_ps(m, gain + i);
    _mm512_mask_storeu_ps(out + i, m, _mm512_mul_ps(_mm512_mul_ps(v, vr), g));
  }
}

__attribute__((target(HPCGPT_AVX512_TARGET))) void silu_mul_avx512(
    float* gate, const float* up, std::size_t n) {
  const __m512 one = _mm512_set1_ps(1.0f);
  for (std::size_t j = 0; j < n; j += 16) {
    const __mmask16 m = n - j >= 16
                            ? static_cast<__mmask16>(0xffff)
                            : static_cast<__mmask16>((1u << (n - j)) - 1);
    const __m512 g = _mm512_maskz_loadu_ps(m, gate + j);
    const __m512 e =
        fast_expf_avx512(_mm512_sub_ps(_mm512_setzero_ps(), g));
    const __m512 s = _mm512_div_ps(g, _mm512_add_ps(one, e));
    _mm512_mask_storeu_ps(gate + j, m,
                          _mm512_mul_ps(s, _mm512_maskz_loadu_ps(m, up + j)));
  }
}

// AVX-512 GEMM tile (run by gemm_tiled below): 7 rows × 3 vectors of
// C stay in 21 of the 32 ZMM registers for the whole k loop, beside the
// three B vectors and one broadcast.
struct Avx512Gemm {
  static constexpr std::size_t kWidth = 16;
  static constexpr int kRows = 7;
  static constexpr int kVecs = 3;

  /// The B elements at p in mask m's lanes, widened to float; the other
  /// lanes read as zero.
  __attribute__((target(HPCGPT_AVX512_TARGET))) static __m512 load(
      const float* p, __mmask16 m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  __attribute__((target(HPCGPT_AVX512_TARGET))) static __m512 load(
      const std::uint16_t* p, __mmask16 m) {
    return _mm512_maskz_cvtph_ps(kAll16, _mm256_maskz_loadu_epi16(m, p));
  }

  /// C rows [i, i+MR) × columns [j, j + 16·NV): the last vector holds
  /// `last` (1..16) columns and is read and written masked.
  template <int MR, int NV, class B>
  __attribute__((target(HPCGPT_AVX512_TARGET))) static void tile(
      const GemmArgs<B>& g, std::size_t i, std::size_t j, std::size_t last) {
    const std::size_t n = g.n, k = g.k, a_rs = g.a_rs, a_cs = g.a_cs;
    const auto tail = static_cast<__mmask16>((1u << last) - 1u);
    float* c = g.c + i * n + j;
    __m512 acc[MR][NV] = {};
    if (g.accumulate) {
#pragma GCC unroll 8
      for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) {
          acc[r][v] = _mm512_maskz_loadu_ps(v + 1 < NV ? kAll16 : tail,
                                            c + r * n + 16 * v);
        }
      }
    }
    const float* a = g.a + i * a_rs;
    const B* b = g.b + j;
    for (std::size_t p = 0; p < k; ++p, a += a_cs, b += n) {
      __m512 bv[NV];
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) {
        bv[v] = load(b + 16 * v, v + 1 < NV ? kAll16 : tail);
      }
#pragma GCC unroll 8
      for (int r = 0; r < MR; ++r) {
        const __m512 ar = _mm512_set1_ps(a[r * a_rs]);
#pragma GCC unroll 8
        for (int v = 0; v < NV; ++v) {
          acc[r][v] = _mm512_fmadd_ps(ar, bv[v], acc[r][v]);
        }
      }
    }
#pragma GCC unroll 8
    for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 8
      for (int v = 0; v < NV; ++v) {
        _mm512_mask_storeu_ps(c + r * n + 16 * v, v + 1 < NV ? kAll16 : tail,
                              acc[r][v]);
      }
    }
  }
};

// Register-tiled GEMM loops of the x86 tiers. Tiles only regroup the
// scalar tier's per-element FMA chains, so the shape chosen here cannot
// change a bit: it is picked for speed from m and n alone.

/// Row block [i, i+MR) across columns [j, n) in tiles of NV vectors; a
/// partial last tile narrows to the fewest vectors that cover it.
template <class Isa, int MR, int NV, class B>
void gemm_panel(const GemmArgs<B>& g, std::size_t i, std::size_t j) {
  constexpr std::size_t w = Isa::kWidth;
  for (; j + w * NV <= g.n; j += w * NV) {
    Isa::template tile<MR, NV>(g, i, j, w);
  }
  const std::size_t rem = g.n - j;
  if (rem == 0) return;
  if constexpr (NV > 1) {
    if (rem <= w * (NV - 1)) return gemm_panel<Isa, MR, NV - 1>(g, i, j);
  }
  Isa::template tile<MR, NV>(g, i, j, rem - w * (NV - 1));
}

/// Rows [i, m) in blocks of MR; the leftover rows take one shorter block.
template <class Isa, int MR, int NV, class B>
void gemm_rows(const GemmArgs<B>& g, std::size_t i) {
  for (; i + MR <= g.m; i += MR) gemm_panel<Isa, MR, NV>(g, i, 0);
  if constexpr (MR > 1) {
    if (i < g.m) gemm_rows<Isa, MR - 1, NV>(g, i);
  }
}

template <class Isa, class B>
void gemm_tiled(const float* a, std::size_t a_rs, std::size_t a_cs,
                const B* b, float* c, std::size_t m, std::size_t k,
                std::size_t n, bool accumulate) {
  const GemmArgs<B> g{a, a_rs, a_cs, b, c, m, k, n, accumulate};
  if (m < 4) {
    // GEMV-shaped calls (decode rounds of up to 3 lanes): one row up to 8
    // vectors wide, so more independent FMA chains hide the latency.
    gemm_rows<Isa, 1, 8>(g, 0);
  } else {
    gemm_rows<Isa, Isa::kRows, Isa::kVecs>(g, 0);
  }
}

#endif  // HPCGPT_X86

#ifdef HPCGPT_NEON

// NEON tier: one 16-byte load covers 4 output columns' quads; products
// widen through int16 (vmull_s8) and fold pairwise into exact int32
// column dots (vpaddlq + vpaddq) — same bitwise contract as x86.
void gemv_i8_neon(const std::int8_t* qx, const std::int8_t* w,
                  const std::int32_t* /*colsum*/, const float* wscale,
                  float xscale, std::size_t in, std::size_t out, float* y) {
  const std::size_t blocks = in / 4;
  std::size_t j = 0;
  for (; j + 4 <= out; j += 4) {
    int32x4_t acc = vdupq_n_s32(0);
    for (std::size_t b = 0; b < blocks; ++b) {
      std::int32_t xi;
      std::memcpy(&xi, qx + b * 4, 4);
      int8x16_t xq = vreinterpretq_s8_s32(vdupq_n_s32(xi));
      int8x16_t wv = vld1q_s8(w + (b * out + j) * 4);
      int32x4_t lo = vpaddlq_s16(vmull_s8(vget_low_s8(xq), vget_low_s8(wv)));
      int32x4_t hi = vpaddlq_s16(vmull_s8(vget_high_s8(xq), vget_high_s8(wv)));
      acc = vaddq_s32(acc, vpaddq_s32(lo, hi));
    }
    float32x4_t f = vmulq_n_f32(vcvtq_f32_s32(acc), xscale);
    vst1q_f32(y + j, vmulq_f32(f, vld1q_f32(wscale + j)));
  }
  for (; j < out; ++j) {
    y[j] = scale_dot(dot_col_i8(qx, w, j, blocks, out), xscale, wscale[j]);
  }
}

#endif  // HPCGPT_NEON

// ---------------------------------------------------------------------------
// Tables + dispatch state
// ---------------------------------------------------------------------------

const KernelTable kScalarTable = {
    IsaTier::Scalar,          "scalar",
    gemm_scalar<float>,       gemm_scalar<std::uint16_t>,
    gemv_i8_scalar,
    attn_scores_paged_scalar, attn_values_paged_scalar,
    attn_rank1_paged_scalar,
    softmax_row_scalar,       add_half_rows_scalar,
    rmsnorm_row_scalar,       silu_mul_scalar};

#ifdef HPCGPT_X86
bool cpu_has_f16c_fma() {
  return __builtin_cpu_supports("f16c") && __builtin_cpu_supports("fma");
}

const KernelTable& avx2_table() {
  // The GEMM and attention helpers want FMA on top of avx2, and the fp16
  // GEMM F16C too; an AVX2-only CPU (no such silicon in practice, but the
  // probe is honest) keeps the scalar versions.
  const bool fma = __builtin_cpu_supports("fma");
  static const KernelTable t = {
      IsaTier::Avx2,
      "avx2",
      fma ? gemm_tiled<Avx2Gemm, float> : gemm_scalar<float>,
      cpu_has_f16c_fma() ? gemm_tiled<Avx2Gemm, std::uint16_t>
                         : gemm_scalar<std::uint16_t>,
      gemv_i8_avx2,
      fma ? attn_scores_paged_avx2 : attn_scores_paged_scalar,
      fma ? attn_values_paged_avx2 : attn_values_paged_scalar,
      attn_rank1_paged_scalar,
      fma ? softmax_row_avx2 : softmax_row_scalar,
      cpu_has_f16c_fma() ? add_half_rows_f16c : add_half_rows_scalar,
      fma ? rmsnorm_row_avx2 : rmsnorm_row_scalar,
      fma ? silu_mul_avx2 : silu_mul_scalar};
  return t;
}

const KernelTable& avx512_table() {
  static const KernelTable t = {
      IsaTier::Avx512,
      "avx512",
      gemm_tiled<Avx512Gemm, float>,
      cpu_has_f16c_fma() ? gemm_tiled<Avx512Gemm, std::uint16_t>
                         : gemm_scalar<std::uint16_t>,
      gemv_i8_avx512,
      attn_scores_paged_avx512,
      attn_values_paged_avx512,
      attn_rank1_paged_avx512,
      softmax_row_avx512,
      cpu_has_f16c_fma() ? add_half_rows_avx512 : add_half_rows_scalar,
      rmsnorm_row_avx512,
      silu_mul_avx512};
  return t;
}
#endif

#ifdef HPCGPT_NEON
// NEON reuses the scalar fp32 helpers: on aarch64 the compiler already
// autovectorizes them (NEON is baseline), so a hand-written variant buys
// nothing the int8 kernel doesn't.
const KernelTable kNeonTable = {
    IsaTier::Neon,            "neon",
    gemm_scalar<float>,       gemm_scalar<std::uint16_t>,
    gemv_i8_neon,
    attn_scores_paged_scalar, attn_values_paged_scalar,
    attn_rank1_paged_scalar,
    softmax_row_scalar,       add_half_rows_scalar,
    rmsnorm_row_scalar,       silu_mul_scalar};
#endif

std::atomic<const KernelTable*> g_active{nullptr};

const KernelTable* probe_best() {
  for (IsaTier tier :
       {IsaTier::Avx512, IsaTier::Avx2, IsaTier::Neon, IsaTier::Scalar}) {
    if (tier_supported(tier)) {
      return &table_for(tier);
    }
  }
  return &kScalarTable;
}

const KernelTable* init_active() {
  const KernelTable* chosen = probe_best();
  if (const char* env = std::getenv("HPCGPT_ISA")) {
    std::optional<IsaTier> wanted = parse_tier(env);
    if (wanted && tier_supported(*wanted)) {
      chosen = &table_for(*wanted);
    } else {
      std::fprintf(stderr,
                   "hpcgpt: HPCGPT_ISA=%s is %s on this CPU; using %s\n", env,
                   wanted ? "unsupported" : "not a known tier", chosen->name);
    }
  }
  return chosen;
}

}  // namespace

const char* tier_name(IsaTier tier) {
  switch (tier) {
    case IsaTier::Scalar:
      return "scalar";
    case IsaTier::Neon:
      return "neon";
    case IsaTier::Avx2:
      return "avx2";
    case IsaTier::Avx512:
      return "avx512";
  }
  return "unknown";
}

bool tier_supported(IsaTier tier) {
  switch (tier) {
    case IsaTier::Scalar:
      return true;
    case IsaTier::Neon:
#ifdef HPCGPT_NEON
      return true;
#else
      return false;
#endif
    case IsaTier::Avx2:
#ifdef HPCGPT_X86
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
    case IsaTier::Avx512:
#ifdef HPCGPT_X86
      return __builtin_cpu_supports("avx512f") &&
             __builtin_cpu_supports("avx512bw") &&
             __builtin_cpu_supports("avx512vl") &&
             __builtin_cpu_supports("avx512vnni");
#else
      return false;
#endif
  }
  return false;
}

std::vector<IsaTier> supported_tiers() {
  std::vector<IsaTier> tiers;
  for (IsaTier tier :
       {IsaTier::Avx512, IsaTier::Avx2, IsaTier::Neon, IsaTier::Scalar}) {
    if (tier_supported(tier)) {
      tiers.push_back(tier);
    }
  }
  return tiers;
}

std::optional<IsaTier> parse_tier(std::string_view name) {
  if (name == "scalar") return IsaTier::Scalar;
  if (name == "neon") return IsaTier::Neon;
  if (name == "avx2") return IsaTier::Avx2;
  if (name == "avx512") return IsaTier::Avx512;
  return std::nullopt;
}

const KernelTable& table_for(IsaTier tier) {
  switch (tier) {
#ifdef HPCGPT_X86
    case IsaTier::Avx2:
      return avx2_table();
    case IsaTier::Avx512:
      return avx512_table();
#endif
#ifdef HPCGPT_NEON
    case IsaTier::Neon:
      return kNeonTable;
#endif
    default:
      return kScalarTable;
  }
}

const KernelTable& active() {
  const KernelTable* table = g_active.load(std::memory_order_acquire);
  if (table == nullptr) {
    static const KernelTable* initial = init_active();
    const KernelTable* expected = nullptr;
    g_active.compare_exchange_strong(expected, initial,
                                     std::memory_order_acq_rel);
    table = g_active.load(std::memory_order_acquire);
  }
  return *table;
}

bool set_active_tier(IsaTier tier) {
  if (!tier_supported(tier)) {
    return false;
  }
  g_active.store(&table_for(tier), std::memory_order_release);
  return true;
}

float quantize_row_i8(const float* x, std::size_t n, std::size_t padded,
                      std::int8_t* out) {
  float amax = 0.0f;
  std::size_t i = 0;
#if defined(HPCGPT_X86)
  // Baseline SSE2 (part of x86-64), so this stays one shared code path
  // for every dispatch tier — the cross-tier bitwise-identity guarantee
  // does not depend on per-tier quantizers agreeing.
  const __m128 absmask = _mm_castsi128_ps(_mm_set1_epi32(0x7FFFFFFF));
  __m128 vmax = _mm_setzero_ps();
  for (; i + 4 <= n; i += 4) {
    vmax = _mm_max_ps(vmax, _mm_and_ps(_mm_loadu_ps(x + i), absmask));
  }
  vmax = _mm_max_ps(vmax, _mm_shuffle_ps(vmax, vmax, _MM_SHUFFLE(1, 0, 3, 2)));
  vmax = _mm_max_ps(vmax, _mm_shuffle_ps(vmax, vmax, _MM_SHUFFLE(2, 3, 0, 1)));
  amax = _mm_cvtss_f32(vmax);
#endif
  for (; i < n; ++i) {
    amax = std::max(amax, std::fabs(x[i]));
  }
  if (amax == 0.0f) {
    std::memset(out, 0, padded);
    return 0.0f;
  }
  const float inv = 127.0f / amax;
  i = 0;
#if defined(HPCGPT_X86)
  // cvtps2dq rounds with the MXCSR mode (nearest-even by default) —
  // exactly what std::nearbyint does in the scalar tail below, so the
  // two paths produce the same bytes. |x*inv| < 127.5 by construction,
  // but clamp at the i16 stage anyway to pin the contract.
  const __m128 vinv = _mm_set1_ps(inv);
  const __m128i lo_c = _mm_set1_epi16(-127);
  const __m128i hi_c = _mm_set1_epi16(127);
  for (; i + 16 <= n; i += 16) {
    const __m128i q0 = _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + i), vinv));
    const __m128i q1 =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + i + 4), vinv));
    const __m128i q2 =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + i + 8), vinv));
    const __m128i q3 =
        _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(x + i + 12), vinv));
    __m128i w0 = _mm_packs_epi32(q0, q1);
    __m128i w1 = _mm_packs_epi32(q2, q3);
    w0 = _mm_min_epi16(hi_c, _mm_max_epi16(lo_c, w0));
    w1 = _mm_min_epi16(hi_c, _mm_max_epi16(lo_c, w1));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm_packs_epi16(w0, w1));
  }
#endif
  for (; i < n; ++i) {
    float q = std::nearbyint(x[i] * inv);
    q = std::min(127.0f, std::max(-127.0f, q));
    out[i] = static_cast<std::int8_t>(q);
  }
  std::memset(out + n, 0, padded - n);
  return amax / 127.0f;
}

}  // namespace hpcgpt::tensor::kernels
