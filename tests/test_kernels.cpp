// ISA-dispatch suite for the GEMM/quantized/attention micro-kernels
// (tensor::kernels). The load-bearing contract: every supported tier
// computes *bitwise-identical* GEMM results over fp32 and fp16 weights
// (one FMA chain per element in a fixed k order, each binary16 weight
// widened exactly) and int8 GEMV results (exact int32 accumulation + one
// shared activation quantizer + one canonical fp32 epilogue), so
// HPCGPT_ISA can force any tier without changing any of them.
// The other fp32 helpers (attention, softmax, rmsnorm, silu) are only
// accuracy-bounded across tiers — FMA/re-association may round
// differently — and that is asserted too, against the scalar table.
//
// tests/CMakeLists.txt re-runs this whole binary once per tier with
// HPCGPT_ISA forced (kernels_isa_scalar/avx2/avx512/neon), which is what
// makes ActiveTierHonorsEnvOverride meaningful: each lane checks that
// the probe actually landed on the forced tier when the host supports
// it. Tests that switch tiers restore the entry tier on exit so the
// lanes stay independent of in-file test order.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/tensor/half.hpp"
#include "hpcgpt/tensor/kernels.hpp"
#include "hpcgpt/tensor/matrix.hpp"
#include "hpcgpt/tensor/quant.hpp"

namespace {

using namespace hpcgpt;
using tensor::Matrix;
using tensor::QuantizedMatrix;
using tensor::QuantMode;
namespace kernels = tensor::kernels;

/// Restores the tier that was active at construction — every test that
/// calls set_active_tier holds one of these.
struct TierGuard {
  kernels::IsaTier entry = kernels::active().tier;
  ~TierGuard() { kernels::set_active_tier(entry); }
};

Matrix random_matrix(Rng& rng, std::size_t in, std::size_t out) {
  Matrix w(in, out);
  w.randomize(rng, 0.5f);
  return w;
}

std::vector<float> random_row(Rng& rng, std::size_t n) {
  std::vector<float> x(n);
  for (auto& v : x) v = static_cast<float>(rng.next_gaussian());
  return x;
}

TEST(Dispatch, ActiveTierHonorsEnvOverride) {
  // When the ctest lane forces HPCGPT_ISA to a tier this host supports,
  // the probe must have landed exactly there; when the forced tier is
  // unsupported (e.g. the avx512 lane on an AVX2-only box) the contract
  // is "warn and keep the probed tier", which still must be supported.
  const kernels::IsaTier active = kernels::active().tier;
  EXPECT_TRUE(kernels::tier_supported(active));
  const char* forced = std::getenv("HPCGPT_ISA");
  if (forced == nullptr) return;
  const auto requested = kernels::parse_tier(forced);
  ASSERT_TRUE(requested.has_value()) << "lane forced bogus tier " << forced;
  if (kernels::tier_supported(*requested)) {
    EXPECT_EQ(active, *requested) << "HPCGPT_ISA=" << forced << " ignored";
  }
}

TEST(Dispatch, ParseTierNames) {
  EXPECT_EQ(kernels::parse_tier("scalar"), kernels::IsaTier::Scalar);
  EXPECT_EQ(kernels::parse_tier("neon"), kernels::IsaTier::Neon);
  EXPECT_EQ(kernels::parse_tier("avx2"), kernels::IsaTier::Avx2);
  EXPECT_EQ(kernels::parse_tier("avx512"), kernels::IsaTier::Avx512);
  EXPECT_FALSE(kernels::parse_tier("").has_value());
  EXPECT_FALSE(kernels::parse_tier("sse9").has_value());
  EXPECT_FALSE(kernels::parse_tier("AVX2").has_value());
}

TEST(Dispatch, SupportedTiersEndWithScalar) {
  const std::vector<kernels::IsaTier> tiers = kernels::supported_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.back(), kernels::IsaTier::Scalar);
  for (const kernels::IsaTier tier : tiers) {
    EXPECT_TRUE(kernels::tier_supported(tier));
    EXPECT_STREQ(kernels::table_for(tier).name, kernels::tier_name(tier));
    EXPECT_EQ(kernels::table_for(tier).tier, tier);
  }
}

TEST(Dispatch, SetActiveTierRejectsUnsupported) {
  TierGuard guard;
  for (const kernels::IsaTier tier :
       {kernels::IsaTier::Scalar, kernels::IsaTier::Neon,
        kernels::IsaTier::Avx2, kernels::IsaTier::Avx512}) {
    if (kernels::tier_supported(tier)) {
      EXPECT_TRUE(kernels::set_active_tier(tier));
      EXPECT_EQ(kernels::active().tier, tier);
    } else {
      const kernels::IsaTier before = kernels::active().tier;
      EXPECT_FALSE(kernels::set_active_tier(tier));
      EXPECT_EQ(kernels::active().tier, before) << "failed set changed tier";
    }
  }
}

TEST(QuantizeRow, ZeroRowHasZeroScale) {
  const std::vector<float> x(13, 0.0f);
  std::vector<std::int8_t> q(16, 99);
  const float scale = kernels::quantize_row_i8(x.data(), x.size(), q.size(),
                                               q.data());
  EXPECT_EQ(scale, 0.0f);
  for (const std::int8_t b : q) EXPECT_EQ(b, 0);  // padding included
}

TEST(QuantizeRow, MaxElementMapsTo127) {
  std::vector<float> x = {0.25f, -2.0f, 1.0f, 0.0f};
  std::vector<std::int8_t> q(16, 99);
  const float scale = kernels::quantize_row_i8(x.data(), x.size(), q.size(),
                                               q.data());
  EXPECT_FLOAT_EQ(scale, 2.0f / 127.0f);
  EXPECT_EQ(q[0], 16);  // 0.25 * 63.5 = 15.875
  EXPECT_EQ(q[1], -127);
  EXPECT_EQ(q[2], 64);  // 1.0 * 127/2 = 63.5 rounds to even
  EXPECT_EQ(q[3], 0);
  for (std::size_t i = x.size(); i < q.size(); ++i) EXPECT_EQ(q[i], 0);
}

// Decode-realistic shapes plus deliberately awkward ones: input not a
// multiple of the 16-element quantizer chunk, single-column output, and
// output widths that leave every vector-width tail (out % 16 != 0).
struct Shape {
  std::size_t in, out;
};
const Shape kShapes[] = {{48, 48},  {48, 96}, {96, 48},   {48, 512},
                         {17, 23},  {1, 7},   {33, 1},    {64, 130},
                         {130, 64}, {16, 16}, {256, 100}};

TEST(Int8Gemv, BitwiseIdenticalAcrossTiers) {
  TierGuard guard;
  Rng rng(11);
  for (const Shape& s : kShapes) {
    const Matrix w = random_matrix(rng, s.in, s.out);
    const QuantizedMatrix q8 = QuantizedMatrix::quantize(w, QuantMode::Int8);
    const std::vector<float> x = random_row(rng, s.in);

    ASSERT_TRUE(kernels::set_active_tier(kernels::IsaTier::Scalar));
    std::vector<float> y_ref(s.out);
    q8.gemv(x, y_ref);

    for (const kernels::IsaTier tier : kernels::supported_tiers()) {
      ASSERT_TRUE(kernels::set_active_tier(tier));
      std::vector<float> y(s.out, -1.0f);
      q8.gemv(x, y);
      EXPECT_EQ(0, std::memcmp(y.data(), y_ref.data(),
                               s.out * sizeof(float)))
          << kernels::tier_name(tier) << " diverges at " << s.in << "x"
          << s.out;
    }
  }
}

TEST(Fp32Gemm, BitwiseIdenticalAcrossTiers) {
  // Every tier runs the same per-element FMA chains, only tiled
  // differently, so each must reproduce the scalar tier's bits: for both
  // A layouts (row-major, and transposed in place as matmul_tn reads
  // it), with and without accumulation, at row counts on both sides of
  // the GEMV/tile switch and widths that leave every vector tail. The
  // fp16 entry must return the scalar fp32 GEMM's bits over its weights
  // widened to fp32. A guard region after C catches an edge tile storing
  // past the last column (GCC's ASan does not instrument masked vector
  // stores).
  constexpr std::size_t kGuard = 16;
  constexpr float kSentinel = -7.25f;
  Rng rng(14);
  struct GemmShape {
    std::size_t m, k, n;
  };
  const GemmShape shapes[] = {{1, 48, 48},   {1, 48, 512}, {2, 96, 48},
                              {3, 17, 130},  {4, 48, 96},  {7, 48, 48},
                              {13, 33, 1},   {17, 1, 23},  {126, 48, 48},
                              {30, 257, 40}, {9, 64, 100}};
  const kernels::KernelTable& scalar =
      kernels::table_for(kernels::IsaTier::Scalar);
  for (const GemmShape& s : shapes) {
    const std::vector<float> a = random_row(rng, s.m * s.k);
    const std::vector<float> b = random_row(rng, s.k * s.n);
    const std::vector<float> c0 = random_row(rng, s.m * s.n);
    std::vector<std::uint16_t> b_half(b.size());
    std::vector<float> b_wide(b.size());
    for (std::size_t i = 0; i < b.size(); ++i) {
      b_half[i] = tensor::Half::from_float(b[i]).bits();
      b_wide[i] = tensor::Half::from_bits(b_half[i]).to_float();
    }
    for (const bool a_transposed : {false, true}) {
      const std::size_t a_rs = a_transposed ? 1 : s.k;
      const std::size_t a_cs = a_transposed ? s.m : 1;
      for (const bool accumulate : {false, true}) {
        for (const bool half : {false, true}) {
          std::vector<float> ref = c0;
          scalar.gemm_f32(a.data(), a_rs, a_cs,
                          half ? b_wide.data() : b.data(), ref.data(), s.m,
                          s.k, s.n, accumulate);
          for (const kernels::IsaTier tier : kernels::supported_tiers()) {
            const kernels::KernelTable& t = kernels::table_for(tier);
            std::vector<float> c = c0;
            c.resize(c0.size() + kGuard, kSentinel);
            if (half) {
              t.gemm_f16(a.data(), a_rs, a_cs, b_half.data(), c.data(), s.m,
                         s.k, s.n, accumulate);
            } else {
              t.gemm_f32(a.data(), a_rs, a_cs, b.data(), c.data(), s.m, s.k,
                         s.n, accumulate);
            }
            const char* entry = half ? " gemm_f16" : " gemm_f32";
            EXPECT_EQ(0, std::memcmp(c.data(), ref.data(),
                                     ref.size() * sizeof(float)))
                << kernels::tier_name(tier) << entry << " diverges at "
                << s.m << "x" << s.k << "x" << s.n
                << (a_transposed ? " A^T" : "") << (accumulate ? " +=" : "");
            EXPECT_EQ(std::count(c.begin() + ref.size(), c.end(), kSentinel),
                      static_cast<std::ptrdiff_t>(kGuard))
                << kernels::tier_name(tier) << entry << " wrote past C at "
                << s.m << "x" << s.k << "x" << s.n;
          }
        }
      }
    }
  }
}

TEST(Int8Gemv, PrequantMatchesGemvBitwise) {
  Rng rng(12);
  for (const Shape& s : kShapes) {
    const Matrix w = random_matrix(rng, s.in, s.out);
    const QuantizedMatrix q8 = QuantizedMatrix::quantize(w, QuantMode::Int8);
    const std::vector<float> x = random_row(rng, s.in);

    std::vector<float> y_gemv(s.out);
    q8.gemv(x, y_gemv);

    std::vector<std::int8_t> qx(q8.padded_rows());
    const float xs =
        kernels::quantize_row_i8(x.data(), s.in, qx.size(), qx.data());
    std::vector<float> y_pre(s.out, -1.0f);
    q8.gemv_prequant(qx.data(), xs, y_pre);
    EXPECT_EQ(0, std::memcmp(y_pre.data(), y_gemv.data(),
                             s.out * sizeof(float)))
        << "shared-activation path diverges at " << s.in << "x" << s.out;
  }
}

TEST(Fp16Gemm, MatchesFp32WithinHalfPrecision) {
  // An fp16 product against the unrounded fp32 weights, through the
  // one-row GEMM path (gemv) and the tiled one (matmul over 5 rows).
  TierGuard guard;
  Rng rng(13);
  constexpr std::size_t kRows = 5;
  for (const Shape& s : kShapes) {
    const Matrix w = random_matrix(rng, s.in, s.out);
    const QuantizedMatrix q16 = QuantizedMatrix::quantize(w, QuantMode::Fp16);
    Matrix x(kRows, s.in);
    for (float& v : x.flat()) v = static_cast<float>(rng.next_gaussian());

    // fp32 reference of x·W, and per row a bound for the weight rounding
    // to binary16 (2^-11 relative per product) plus fp32 accumulation
    // re-ordering, scaled by the row's L1 mass.
    Matrix y_ref(kRows, s.out);
    std::vector<float> tol(kRows);
    for (std::size_t r = 0; r < kRows; ++r) {
      float mass = 0.0f;
      for (std::size_t i = 0; i < s.in; ++i) {
        mass += std::fabs(x.at(r, i));
        for (std::size_t j = 0; j < s.out; ++j) {
          y_ref.at(r, j) += x.at(r, i) * w.at(i, j);
        }
      }
      tol[r] = 2e-3f * mass + 1e-4f;
    }

    for (const kernels::IsaTier tier : kernels::supported_tiers()) {
      ASSERT_TRUE(kernels::set_active_tier(tier));
      Matrix y;
      q16.matmul(x, y);
      std::vector<float> y_row(s.out);
      for (std::size_t r = 0; r < kRows; ++r) {
        q16.gemv(x.row(r), y_row);
        for (std::size_t j = 0; j < s.out; ++j) {
          ASSERT_NEAR(y_row[j], y_ref.at(r, j), tol[r])
              << kernels::tier_name(tier) << " gemv " << s.in << "x" << s.out
              << " col " << j;
          ASSERT_NEAR(y.at(r, j), y_ref.at(r, j), tol[r])
              << kernels::tier_name(tier) << " matmul " << s.in << "x"
              << s.out << " row " << r << " col " << j;
        }
      }
    }
  }
}

/// Per-tier accuracy of the fp32 kernels against the scalar table.
class Fp32KernelTiers : public ::testing::Test {
 protected:
  TierGuard guard_;
};

TEST_F(Fp32KernelTiers, AttentionScoresAndValues) {
  // Decode-shaped attention over a block-paged cache: lengths 1..64 cover
  // one to four pages, with partial tail pages. Each page is its own
  // allocation holding the K slab (offset 0) and the V slab (offset
  // hd·kKvPageSize), feature-major with stride kKvPageSize.
  constexpr std::size_t kPage = kernels::kKvPageSize;
  Rng rng(14);
  const kernels::KernelTable& scalar =
      kernels::table_for(kernels::IsaTier::Scalar);
  for (const std::size_t hd : {8u, 12u, 16u, 48u, 80u}) {
    for (const std::size_t len : {1u, 5u, 16u, 33u, 64u}) {
      const std::size_t n_pages = (len + kPage - 1) / kPage;
      std::vector<std::vector<float>> storage;
      std::vector<const float*> pages;
      for (std::size_t p = 0; p < n_pages; ++p) {
        storage.push_back(random_row(rng, 2 * hd * kPage));
        pages.push_back(storage.back().data());
      }
      const std::size_t v_off = hd * kPage;
      const std::vector<float> q = random_row(rng, hd);
      const float scale = 1.0f / std::sqrt(static_cast<float>(hd));

      const float inv = 0.5f;

      std::vector<float> probs_ref(len);
      scalar.attn_scores_paged(q.data(), hd, scale, pages.data(), 0, hd, len,
                               1, probs_ref.data(), len);
      std::vector<float> out_ref(hd);
      scalar.attn_values_paged(probs_ref.data(), len, &inv, pages.data(),
                               v_off, hd, len, 1, out_ref.data(), hd);

      for (const kernels::IsaTier tier : kernels::supported_tiers()) {
        ASSERT_TRUE(kernels::set_active_tier(tier));
        const kernels::KernelTable& kt = kernels::active();
        std::vector<float> probs(len);
        kt.attn_scores_paged(q.data(), hd, scale, pages.data(), 0, hd, len, 1,
                             probs.data(), len);
        for (std::size_t s = 0; s < len; ++s) {
          ASSERT_NEAR(probs[s], probs_ref[s],
                      1e-5f * static_cast<float>(hd) + 1e-5f)
              << kt.name << " hd=" << hd << " len=" << len << " s=" << s;
        }
        std::vector<float> out(hd);
        kt.attn_values_paged(probs_ref.data(), len, &inv, pages.data(), v_off,
                             hd, len, 1, out.data(), hd);
        for (std::size_t i = 0; i < hd; ++i) {
          ASSERT_NEAR(out[i], out_ref[i],
                      1e-5f * static_cast<float>(len) + 1e-5f)
              << kt.name << " hd=" << hd << " len=" << len << " i=" << i;
        }
      }
    }
  }
}

/// Operands of the three paged attention entries for a run of `n`
/// consecutive causal rows, the first of length len0, over ⌈(len0+n-1)/16⌉
/// random pages (K slab at offset 0, V slab at hd·kKvPageSize). Row
/// strides are deliberately wider than the rows.
struct AttentionRun {
  std::size_t hd, len0, n, len_max, q_stride, p_stride;
  std::vector<float> q, d_out, ds, e, inv;
  std::vector<std::vector<float>> storage;  // the pages

  AttentionRun(Rng& rng, std::size_t hd_, std::size_t len0_, std::size_t n_)
      : hd(hd_),
        len0(len0_),
        n(n_),
        len_max(len0_ + n_ - 1),
        q_stride(hd_ + 3),
        p_stride(len0_ + n_ + 5),
        q(random_row(rng, n_ * q_stride)),
        d_out(random_row(rng, n_ * q_stride)),
        ds(random_row(rng, n_ * p_stride)),
        e(random_row(rng, n_ * p_stride)),
        inv(random_row(rng, n_)) {
    const std::size_t kPage = kernels::kKvPageSize;
    for (std::size_t p = 0; p * kPage < len_max; ++p) {
      storage.push_back(random_row(rng, 2 * hd * kPage));
    }
  }

  std::vector<const float*> pages() const {
    std::vector<const float*> out;
    for (const auto& page : storage) out.push_back(page.data());
    return out;
  }
};

TEST_F(Fp32KernelTiers, AttentionTilesMatchOneRowCallsBitwise) {
  // The tile contract of the paged attention entries: on every tier, a
  // run of n causal rows cut into tiles of up to kAttnTileRows gives
  // every row exactly the bits of n tiles of one. Runs start at length 1,
  // inside the first page (5), across a page boundary (14 → 17) and past
  // two (30); n = 5 and 7 end in a shorter tile. hd = 7 takes the
  // kernels' leftover-feature paths. Outputs start from a sentinel and
  // are compared whole, so a row that wrote past its own length (or the
  // rank-1 update past the run) fails too.
  constexpr std::size_t kPage = kernels::kKvPageSize;
  constexpr std::size_t kTile = kernels::kAttnTileRows;
  constexpr float kSentinel = -7.25f;
  Rng rng(17);
  for (const std::size_t hd : {7u, 8u, 12u, 16u, 48u, 80u}) {
    for (const std::size_t len0 : {1u, 5u, 14u, 30u}) {
      for (const std::size_t n : {1u, 2u, 3u, 4u, 5u, 7u}) {
        const AttentionRun run(rng, hd, len0, n);
        const std::vector<const float*> pages = run.pages();
        const std::size_t v_off = hd * kPage;
        const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
        const std::size_t out_stride = hd + 2;
        for (const kernels::IsaTier tier : kernels::supported_tiers()) {
          ASSERT_TRUE(kernels::set_active_tier(tier));
          const kernels::KernelTable& kt = kernels::active();
          const auto where = [&] {
            return std::string(kt.name) + " hd=" + std::to_string(hd) +
                   " len0=" + std::to_string(len0) +
                   " n=" + std::to_string(n);
          };
          // Runs `entry(r0, rows)` over the run, in tiles of `tile` rows.
          const auto tiled = [&](std::size_t tile, const auto& entry) {
            for (std::size_t r0 = 0; r0 < n; r0 += tile) {
              entry(r0, std::min(tile, n - r0));
            }
          };

          std::vector<float> probs_tile(n * run.p_stride, kSentinel);
          std::vector<float> probs_one = probs_tile;
          for (auto [tile, probs] : {std::pair{kTile, &probs_tile},
                                     std::pair{std::size_t{1}, &probs_one}}) {
            tiled(tile, [&](std::size_t r0, std::size_t rows) {
              kt.attn_scores_paged(run.q.data() + r0 * run.q_stride,
                                   run.q_stride, scale, pages.data(), 0, hd,
                                   len0 + r0, rows,
                                   probs->data() + r0 * run.p_stride,
                                   run.p_stride);
            });
          }
          EXPECT_EQ(0, std::memcmp(probs_tile.data(), probs_one.data(),
                                   probs_tile.size() * sizeof(float)))
              << "scores " << where();

          std::vector<float> out_tile(n * out_stride, kSentinel);
          std::vector<float> out_one = out_tile;
          for (auto [tile, out] : {std::pair{kTile, &out_tile},
                                   std::pair{std::size_t{1}, &out_one}}) {
            tiled(tile, [&](std::size_t r0, std::size_t rows) {
              kt.attn_values_paged(run.e.data() + r0 * run.p_stride,
                                   run.p_stride, run.inv.data() + r0,
                                   pages.data(), v_off, hd, len0 + r0, rows,
                                   out->data() + r0 * out_stride, out_stride);
            });
          }
          EXPECT_EQ(0, std::memcmp(out_tile.data(), out_one.data(),
                                   out_tile.size() * sizeof(float)))
              << "values " << where();

          // The rank-1 update accumulates into random page contents; the
          // slots past the run's longest row must keep theirs.
          std::vector<std::vector<float>> grad_tile = run.storage;
          std::vector<std::vector<float>> grad_one = run.storage;
          for (auto [tile, grad] : {std::pair{kTile, &grad_tile},
                                    std::pair{std::size_t{1}, &grad_one}}) {
            std::vector<float*> grad_pages;
            for (auto& page : *grad) grad_pages.push_back(page.data());
            tiled(tile, [&](std::size_t r0, std::size_t rows) {
              kt.attn_rank1_paged(run.ds.data() + r0 * run.p_stride,
                                  run.e.data() + r0 * run.p_stride,
                                  run.p_stride,
                                  run.q.data() + r0 * run.q_stride,
                                  run.d_out.data() + r0 * run.q_stride,
                                  run.q_stride, run.inv.data() + r0,
                                  grad_pages.data(), 0, v_off, hd,
                                  len0 + r0, rows);
            });
          }
          for (std::size_t p = 0; p < grad_tile.size(); ++p) {
            EXPECT_EQ(0, std::memcmp(grad_tile[p].data(), grad_one[p].data(),
                                     grad_tile[p].size() * sizeof(float)))
                << "rank-1 " << where() << " page " << p;
            for (std::size_t i = 0; i < 2 * hd; ++i) {
              for (std::size_t slot = 0; slot < kPage; ++slot) {
                if (p * kPage + slot < run.len_max) continue;
                ASSERT_EQ(grad_tile[p][i * kPage + slot],
                          run.storage[p][i * kPage + slot])
                    << "rank-1 wrote past the run, " << where();
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(Fp32KernelTiers, AttentionRank1MatchesScalar) {
  // The rank-1 update is elementwise (one multiply-add per row and
  // element), so tiers differ at most by FMA rounding.
  constexpr std::size_t kPage = kernels::kKvPageSize;
  Rng rng(18);
  const kernels::KernelTable& scalar =
      kernels::table_for(kernels::IsaTier::Scalar);
  for (const std::size_t hd : {8u, 12u, 80u}) {
    const AttentionRun run(rng, hd, 14, kernels::kAttnTileRows);
    const auto apply = [&](const kernels::KernelTable& kt) {
      std::vector<std::vector<float>> grad = run.storage;
      std::vector<float*> grad_pages;
      for (auto& page : grad) grad_pages.push_back(page.data());
      kt.attn_rank1_paged(run.ds.data(), run.e.data(), run.p_stride,
                          run.q.data(), run.d_out.data(), run.q_stride,
                          run.inv.data(), grad_pages.data(), 0, hd * kPage,
                          hd, run.len0, run.n);
      return grad;
    };
    const std::vector<std::vector<float>> ref = apply(scalar);
    for (const kernels::IsaTier tier : kernels::supported_tiers()) {
      ASSERT_TRUE(kernels::set_active_tier(tier));
      const std::vector<std::vector<float>> got = apply(kernels::active());
      for (std::size_t p = 0; p < ref.size(); ++p) {
        for (std::size_t j = 0; j < ref[p].size(); ++j) {
          ASSERT_NEAR(got[p][j], ref[p][j], 1e-5f * std::fabs(ref[p][j]) + 1e-5f)
              << kernels::tier_name(tier) << " hd=" << hd << " page " << p;
        }
      }
    }
  }
}

TEST_F(Fp32KernelTiers, SoftmaxRow) {
  Rng rng(15);
  for (const std::size_t len : {1u, 7u, 16u, 65u}) {
    const std::vector<float> base = random_row(rng, len);
    std::vector<float> ref = base;
    const float inv_ref =
        kernels::table_for(kernels::IsaTier::Scalar).softmax_row(ref.data(),
                                                                 len);
    for (const kernels::IsaTier tier : kernels::supported_tiers()) {
      ASSERT_TRUE(kernels::set_active_tier(tier));
      std::vector<float> probs = base;
      const float inv = kernels::active().softmax_row(probs.data(), len);
      ASSERT_NEAR(inv, inv_ref, 1e-4f * std::fabs(inv_ref));
      for (std::size_t s = 0; s < len; ++s) {
        ASSERT_NEAR(probs[s], ref[s], 1e-5f)
            << kernels::tier_name(tier) << " len=" << len << " s=" << s;
      }
    }
  }
}

TEST_F(Fp32KernelTiers, RmsnormAndSiluMul) {
  Rng rng(16);
  for (const std::size_t n : {1u, 15u, 48u, 96u, 257u}) {
    const std::vector<float> x = random_row(rng, n);
    const std::vector<float> gain = random_row(rng, n);
    const std::vector<float> up = random_row(rng, n);
    const kernels::KernelTable& scalar =
        kernels::table_for(kernels::IsaTier::Scalar);

    std::vector<float> norm_ref(n);
    scalar.rmsnorm_row(x.data(), gain.data(), n, 1e-5f, norm_ref.data());
    std::vector<float> silu_ref = x;
    scalar.silu_mul(silu_ref.data(), up.data(), n);

    for (const kernels::IsaTier tier : kernels::supported_tiers()) {
      ASSERT_TRUE(kernels::set_active_tier(tier));
      const kernels::KernelTable& kt = kernels::active();
      std::vector<float> norm(n);
      kt.rmsnorm_row(x.data(), gain.data(), n, 1e-5f, norm.data());
      std::vector<float> silu = x;
      kt.silu_mul(silu.data(), up.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_NEAR(norm[i], norm_ref[i],
                    1e-5f * std::fabs(norm_ref[i]) + 1e-6f)
            << kt.name << " rmsnorm n=" << n << " i=" << i;
        ASSERT_NEAR(silu[i], silu_ref[i],
                    1e-5f * std::fabs(silu_ref[i]) + 1e-6f)
            << kt.name << " silu n=" << n << " i=" << i;
      }
    }
  }
}

TEST_F(Fp32KernelTiers, AddHalfRowsIsExactEverywhere) {
  // fp16→fp32 conversion is exact in every tier (F16C and the software
  // path agree bit-for-bit), and one fp32 add cannot re-associate — so
  // unlike the other fp32 helpers this one is pinned bitwise.
  Rng rng(17);
  for (const std::size_t n : {1u, 16u, 48u, 100u}) {
    std::vector<std::uint16_t> a(n), b(n);
    std::vector<float> ref(n);
    for (std::size_t i = 0; i < n; ++i) {
      const float fa = static_cast<float>(rng.next_gaussian());
      const float fb = static_cast<float>(rng.next_gaussian());
      a[i] = tensor::Half::from_float(fa).bits();
      b[i] = tensor::Half::from_float(fb).bits();
      ref[i] = tensor::Half::from_bits(a[i]).to_float() +
               tensor::Half::from_bits(b[i]).to_float();
    }
    TierGuard guard;
    for (const kernels::IsaTier tier : kernels::supported_tiers()) {
      ASSERT_TRUE(kernels::set_active_tier(tier));
      std::vector<float> out(n, -1.0f);
      kernels::active().add_half_rows(a.data(), b.data(), n, out.data());
      EXPECT_EQ(0, std::memcmp(out.data(), ref.data(), n * sizeof(float)))
          << kernels::tier_name(tier) << " n=" << n;
    }
  }
}

}  // namespace
