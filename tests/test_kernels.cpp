// ISA-dispatch suite for the GEMM/quantized/attention micro-kernels
// (tensor::kernels). The load-bearing contract: every supported tier
// computes *bitwise-identical* fp32 GEMM results (one FMA chain per
// element in a fixed k order) and int8 GEMV results (exact int32
// accumulation + one shared activation quantizer + one canonical fp32
// epilogue), so HPCGPT_ISA can force any tier without changing either.
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
#include <cstdlib>
#include <cstring>
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
  // the GEMV/tile switch and widths that leave every vector tail. A
  // guard region after C catches an edge tile storing past the last
  // column (GCC's ASan does not instrument masked vector stores).
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
  for (const GemmShape& s : shapes) {
    const std::vector<float> a = random_row(rng, s.m * s.k);
    const std::vector<float> b = random_row(rng, s.k * s.n);
    const std::vector<float> c0 = random_row(rng, s.m * s.n);
    for (const bool a_transposed : {false, true}) {
      const std::size_t a_rs = a_transposed ? 1 : s.k;
      const std::size_t a_cs = a_transposed ? s.m : 1;
      for (const bool accumulate : {false, true}) {
        std::vector<float> ref = c0;
        kernels::table_for(kernels::IsaTier::Scalar)
            .gemm_f32(a.data(), a_rs, a_cs, b.data(), ref.data(), s.m, s.k,
                      s.n, accumulate);
        for (const kernels::IsaTier tier : kernels::supported_tiers()) {
          std::vector<float> c = c0;
          c.resize(c0.size() + kGuard, kSentinel);
          kernels::table_for(tier).gemm_f32(a.data(), a_rs, a_cs, b.data(),
                                            c.data(), s.m, s.k, s.n,
                                            accumulate);
          EXPECT_EQ(0, std::memcmp(c.data(), ref.data(),
                                   ref.size() * sizeof(float)))
              << kernels::tier_name(tier) << " diverges at " << s.m << "x"
              << s.k << "x" << s.n << (a_transposed ? " A^T" : "")
              << (accumulate ? " +=" : "");
          EXPECT_EQ(std::count(c.begin() + ref.size(), c.end(), kSentinel),
                    static_cast<std::ptrdiff_t>(kGuard))
              << kernels::tier_name(tier) << " wrote past C at " << s.m
              << "x" << s.k << "x" << s.n;
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

TEST(Fp16Gemv, MatchesFp32WithinHalfPrecision) {
  TierGuard guard;
  Rng rng(13);
  for (const Shape& s : kShapes) {
    const Matrix w = random_matrix(rng, s.in, s.out);
    const QuantizedMatrix q16 = QuantizedMatrix::quantize(w, QuantMode::Fp16);
    const std::vector<float> x = random_row(rng, s.in);

    // fp32 reference of x·W.
    std::vector<float> y_ref(s.out, 0.0f);
    for (std::size_t i = 0; i < s.in; ++i) {
      for (std::size_t j = 0; j < s.out; ++j) {
        y_ref[j] += x[i] * w.row(i)[j];
      }
    }
    // Weight rounding to binary16 (2^-11 relative per product) plus fp32
    // accumulation re-ordering; bound scaled by the row's L1 mass.
    float mass = 0.0f;
    for (std::size_t i = 0; i < s.in; ++i) mass += std::fabs(x[i]);
    const float tol = 2e-3f * mass + 1e-4f;

    for (const kernels::IsaTier tier : kernels::supported_tiers()) {
      ASSERT_TRUE(kernels::set_active_tier(tier));
      std::vector<float> y(s.out);
      q16.gemv(x, y);
      for (std::size_t j = 0; j < s.out; ++j) {
        ASSERT_NEAR(y[j], y_ref[j], tol)
            << kernels::tier_name(tier) << " " << s.in << "x" << s.out
            << " col " << j;
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

      std::vector<float> probs_ref(len);
      scalar.attn_scores_paged(q.data(), scale, pages.data(), 0, hd, len,
                               probs_ref.data());
      std::vector<float> out_ref(hd);
      scalar.attn_values_paged(probs_ref.data(), 0.5f, pages.data(), v_off,
                               hd, len, out_ref.data());

      for (const kernels::IsaTier tier : kernels::supported_tiers()) {
        ASSERT_TRUE(kernels::set_active_tier(tier));
        const kernels::KernelTable& kt = kernels::active();
        std::vector<float> probs(len);
        kt.attn_scores_paged(q.data(), scale, pages.data(), 0, hd, len,
                             probs.data());
        for (std::size_t s = 0; s < len; ++s) {
          ASSERT_NEAR(probs[s], probs_ref[s],
                      1e-5f * static_cast<float>(hd) + 1e-5f)
              << kt.name << " hd=" << hd << " len=" << len << " s=" << s;
        }
        std::vector<float> out(hd);
        kt.attn_values_paged(probs_ref.data(), 0.5f, pages.data(), v_off, hd,
                             len, out.data());
        for (std::size_t i = 0; i < hd; ++i) {
          ASSERT_NEAR(out[i], out_ref[i],
                      1e-5f * static_cast<float>(len) + 1e-5f)
              << kt.name << " hd=" << hd << " len=" << len << " i=" << i;
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
