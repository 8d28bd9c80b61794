#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "hpcgpt/support/error.hpp"
#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/tensor/half.hpp"
#include "hpcgpt/tensor/matrix.hpp"

namespace hpcgpt::tensor {
namespace {

// ---------------------------------------------------------------- Half

TEST(Half, ExactSmallValues) {
  for (const float f : {0.0f, 1.0f, -1.0f, 0.5f, 2.0f, -3.25f, 1024.0f}) {
    EXPECT_EQ(Half::from_float(f).to_float(), f) << f;
  }
}

TEST(Half, RoundTripErrorBounded) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const float f = static_cast<float>(rng.next_gaussian());
    const float back = Half::from_float(f).to_float();
    // binary16 has 11 significand bits: relative error <= 2^-11.
    EXPECT_NEAR(back, f, std::abs(f) * 0x1.0p-10f + 1e-7f);
  }
}

TEST(Half, OverflowBecomesInf) {
  EXPECT_TRUE(std::isinf(Half::from_float(1e20f).to_float()));
  EXPECT_TRUE(std::isinf(Half::from_float(-1e20f).to_float()));
  EXPECT_LT(Half::from_float(-1e20f).to_float(), 0.0f);
  EXPECT_EQ(Half::from_float(65504.0f).to_float(), 65504.0f);  // max finite
}

TEST(Half, NanPreserved) {
  EXPECT_TRUE(std::isnan(Half::from_float(NAN).to_float()));
}

TEST(Half, SubnormalsRepresentable) {
  const float tiny = 1e-5f;  // below binary16 normal range (min ~6.1e-5)
  const float back = Half::from_float(tiny).to_float();
  EXPECT_GT(back, 0.0f);
  EXPECT_NEAR(back, tiny, tiny * 0.05f);
}

TEST(Half, SignedZero) {
  EXPECT_EQ(Half::from_float(-0.0f).bits(), 0x8000u);
  EXPECT_EQ(Half::from_float(0.0f).bits(), 0x0000u);
}

TEST(Half, RoundToNearestEven) {
  // 1 + 2^-11 is exactly halfway between 1.0 and the next half; ties to
  // even must keep 1.0 (even mantissa).
  const float halfway = 1.0f + 0x1.0p-11f;
  EXPECT_EQ(Half::from_float(halfway).to_float(), 1.0f);
}

// ---------------------------------------------------------------- Matrix

Matrix make_seq(std::size_t rows, std::size_t cols, float start = 0.0f) {
  Matrix m(rows, cols);
  float v = start;
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m.at(r, c) = v += 1.0f;
  }
  return m;
}

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(3, 4, 2.5f);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  EXPECT_EQ(m.at(2, 3), 2.5f);
  m.at(1, 1) = -1.0f;
  EXPECT_EQ(m.row(1)[1], -1.0f);
}

TEST(Matrix, MatmulAgainstHandComputed) {
  Matrix a(2, 3);
  a.at(0, 0) = 1; a.at(0, 1) = 2; a.at(0, 2) = 3;
  a.at(1, 0) = 4; a.at(1, 1) = 5; a.at(1, 2) = 6;
  Matrix b(3, 2);
  b.at(0, 0) = 7;  b.at(0, 1) = 8;
  b.at(1, 0) = 9;  b.at(1, 1) = 10;
  b.at(2, 0) = 11; b.at(2, 1) = 12;
  Matrix c(2, 2);
  matmul(a, b, c);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58.0f);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64.0f);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139.0f);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154.0f);
}

TEST(Matrix, TransposedVariantsAgree) {
  Rng rng(3);
  Matrix a(5, 7);
  Matrix b(7, 4);
  a.randomize(rng, 1.0f);
  b.randomize(rng, 1.0f);
  Matrix reference(5, 4);
  matmul(a, b, reference);

  // a·b == a·(bᵀ)ᵀ via matmul_nt with b_t.
  Matrix b_t(4, 7);
  for (std::size_t r = 0; r < 7; ++r) {
    for (std::size_t c = 0; c < 4; ++c) b_t.at(c, r) = b.at(r, c);
  }
  Matrix via_nt(5, 4);
  matmul_nt(a, b_t, via_nt);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(via_nt.flat()[i], reference.flat()[i], 1e-4f);
  }

  // a·b == (aᵀ)ᵀ·b via matmul_tn with a_t.
  Matrix a_t(7, 5);
  for (std::size_t r = 0; r < 5; ++r) {
    for (std::size_t c = 0; c < 7; ++c) a_t.at(c, r) = a.at(r, c);
  }
  Matrix via_tn(5, 4);
  matmul_tn(a_t, b, via_tn);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    EXPECT_NEAR(via_tn.flat()[i], reference.flat()[i], 1e-4f);
  }
}

TEST(Matrix, AccumulatingVariantsAdd) {
  Rng rng(9);
  Matrix a(3, 3), b(3, 3);
  a.randomize(rng, 1.0f);
  b.randomize(rng, 1.0f);
  Matrix once(3, 3), twice(3, 3);
  matmul(a, b, once);
  matmul(a, b, twice);
  matmul_acc(a, b, twice);
  for (std::size_t i = 0; i < once.size(); ++i) {
    EXPECT_NEAR(twice.flat()[i], 2.0f * once.flat()[i], 1e-4f);
  }
}

TEST(Matrix, MatmulShapeChecks) {
  Matrix a(2, 3), b(4, 2), out(2, 2);
  EXPECT_THROW(matmul(a, b, out), InvalidArgument);
  Matrix b2(3, 2), bad_out(3, 2);
  EXPECT_THROW(matmul(a, b2, bad_out), InvalidArgument);
}

// ------------------------------------------------ GEMM batch invariance

/// One of the six GEMM entry points and how it stores its operands.
struct GemmEntry {
  const char* name;
  void (*fn)(const Matrix&, const Matrix&, Matrix&);
  bool a_transposed;  // matmul_tn*: A is stored k×m
  bool b_transposed;  // matmul_nt*: B is stored n×k
  bool accumulate;    // *_acc: out += A·B
};

const GemmEntry kGemmEntries[] = {
    {"matmul", matmul, false, false, false},
    {"matmul_acc", matmul_acc, false, false, true},
    {"matmul_nt", matmul_nt, false, true, false},
    {"matmul_nt_acc", matmul_nt_acc, false, true, true},
    {"matmul_tn", matmul_tn, true, false, false},
    {"matmul_tn_acc", matmul_tn_acc, true, false, true},
};

Matrix gaussian(Rng& rng, std::size_t rows, std::size_t cols) {
  Matrix m(rows, cols);
  m.randomize(rng, 1.0f);
  return m;
}

TEST(Matrix, EveryGemmRowIsIndependentOfTheRowCount) {
  // The fp32 GEMM contract: row i of an m-row product has the same bits
  // as a 1-row product on row i of A (column i for matmul_tn), whatever
  // m is, so a decode lane's logits do not depend on how many lanes or
  // prompt rows share its GEMM. Row counts cross every tile boundary of
  // the kernel (1–3 rows, 7-row blocks and their remainders) up to
  // prefill sizes; shapes are the serving projections (d_model 48,
  // d_ff 96, vocab 512) plus edge widths. Every value must also stay
  // within the error bound of its k-step FMA chain, γ(k+1)·(|c0| +
  // Σ|a·b|) with γ(j) = j·u / (1 - j·u), of a double-precision reference.
  struct Shape {
    std::size_t k, n;
  };
  std::vector<Shape> shapes = {{48, 48}, {48, 96}, {96, 48}, {48, 512}};
  for (const std::size_t k : {1u, 3u, 257u}) {
    for (const std::size_t n : {1u, 13u, 33u}) shapes.push_back({k, n});
  }
  constexpr double kUnit = 0x1.0p-24;
  Rng rng(31);
  for (const GemmEntry& e : kGemmEntries) {
    for (const Shape& s : shapes) {
      for (const std::size_t m :
           {1u, 2u, 3u, 7u, 8u, 9u, 16u, 17u, 126u, 146u, 288u}) {
        const Matrix a = e.a_transposed ? gaussian(rng, s.k, m)
                                        : gaussian(rng, m, s.k);
        const Matrix b = e.b_transposed ? gaussian(rng, s.n, s.k)
                                        : gaussian(rng, s.k, s.n);
        const Matrix c0 = e.accumulate ? gaussian(rng, m, s.n)
                                       : Matrix(m, s.n);
        const auto a_at = [&](std::size_t i, std::size_t p) {
          return e.a_transposed ? a.at(p, i) : a.at(i, p);
        };
        const auto b_at = [&](std::size_t p, std::size_t j) {
          return e.b_transposed ? b.at(j, p) : b.at(p, j);
        };
        Matrix full = c0;
        e.fn(a, b, full);

        std::size_t rows_differing = 0;
        std::size_t out_of_bound = 0;
        for (std::size_t i = 0; i < m; ++i) {
          Matrix a_row = e.a_transposed ? Matrix(s.k, 1) : Matrix(1, s.k);
          for (std::size_t p = 0; p < s.k; ++p) a_row.flat()[p] = a_at(i, p);
          Matrix one(1, s.n);
          const auto c0_row = c0.row(i);
          std::copy(c0_row.begin(), c0_row.end(), one.flat().begin());
          e.fn(a_row, b, one);
          rows_differing += std::memcmp(one.data(), full.row(i).data(),
                                        s.n * sizeof(float)) != 0;
          for (std::size_t j = 0; j < s.n; ++j) {
            double ref = c0.at(i, j);
            double mass = std::fabs(ref);
            for (std::size_t p = 0; p < s.k; ++p) {
              const double prod = static_cast<double>(a_at(i, p)) * b_at(p, j);
              ref += prod;
              mass += std::fabs(prod);
            }
            const double steps = static_cast<double>(s.k + 1);
            const double bound = steps * kUnit / (1.0 - steps * kUnit) * mass;
            out_of_bound += std::fabs(full.at(i, j) - ref) > bound;
          }
        }
        EXPECT_EQ(rows_differing, 0u)
            << e.name << " m=" << m << " k=" << s.k << " n=" << s.n;
        EXPECT_EQ(out_of_bound, 0u)
            << e.name << " m=" << m << " k=" << s.k << " n=" << s.n;
      }
    }
  }
}

TEST(Matrix, ElementwiseOps) {
  Matrix a = make_seq(2, 2);       // 1 2 / 3 4
  Matrix b = make_seq(2, 2, 10.f); // 11 12 / 13 14
  add_inplace(a, b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 12.0f);
  scale_inplace(a, 0.5f);
  EXPECT_FLOAT_EQ(a.at(1, 1), 9.0f);
  hadamard_inplace(a, b);
  EXPECT_FLOAT_EQ(a.at(0, 0), 66.0f);
  Matrix wrong(3, 2);
  EXPECT_THROW(add_inplace(a, wrong), InvalidArgument);
}

TEST(Matrix, SoftmaxRowsSumToOne) {
  Rng rng(4);
  Matrix m(6, 10);
  m.randomize(rng, 3.0f);
  softmax_rows(m);
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float sum = 0.0f;
    for (const float x : m.row(r)) {
      EXPECT_GT(x, 0.0f);
      sum += x;
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(Matrix, SoftmaxStableForHugeLogits) {
  Matrix m(1, 3);
  m.at(0, 0) = 1e4f;
  m.at(0, 1) = 1e4f - 1.0f;
  m.at(0, 2) = -1e4f;
  softmax_rows(m);
  EXPECT_FALSE(std::isnan(m.at(0, 0)));
  EXPECT_GT(m.at(0, 0), m.at(0, 1));
  EXPECT_NEAR(m.at(0, 2), 0.0f, 1e-6f);
}

TEST(Matrix, HalfRoundTripMatrix) {
  Rng rng(8);
  Matrix m(5, 6);
  m.randomize(rng, 2.0f);
  const Matrix back = Matrix::from_half(5, 6, m.to_half());
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_NEAR(back.flat()[i], m.flat()[i],
                std::abs(m.flat()[i]) * 1e-3f + 1e-6f);
  }
  EXPECT_THROW(Matrix::from_half(2, 2, m.to_half()), InvalidArgument);
}

TEST(Matrix, SquaredNorm) {
  Matrix m(1, 3);
  m.at(0, 0) = 3.0f;
  m.at(0, 1) = 4.0f;
  EXPECT_DOUBLE_EQ(m.squared_norm(), 25.0);
}

}  // namespace
}  // namespace hpcgpt::tensor
