// Quantized-GEMV micro-bench: the decode hot loop's matvec shapes
// (d_model×d_model projections, d_model×d_ff MLP, d_model×vocab head)
// timed per storage format on the active ISA tier. The fp32 column is
// the production decode path: nn::Linear::apply_rows runs
// tensor::matmul on one row (KernelTable::gemm_f32), so it is timed on a
// preallocated 1×in matrix. int8 runs KernelTable::gemv_i8 and fp16 the
// GEMM's fp16 entry (gemm_f16) on one row. Prints their speedups over
// fp32.
// Used interactively after kernel changes and as a perf-smoke ctest
// entry (see tests/CMakeLists.txt) so the quantized path is exercised —
// with a correctness cross-check — in sanitizer lanes too.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <vector>

#include "hpcgpt/support/rng.hpp"
#include "hpcgpt/tensor/kernels.hpp"
#include "hpcgpt/tensor/matrix.hpp"
#include "hpcgpt/tensor/quant.hpp"

namespace {

using hpcgpt::Rng;
using hpcgpt::tensor::Matrix;
using hpcgpt::tensor::QuantizedMatrix;
using hpcgpt::tensor::QuantMode;
namespace kernels = hpcgpt::tensor::kernels;

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Shape {
  std::size_t in;
  std::size_t out;
  const char* label;
};

double bench_loop(const std::function<void()>& fn, int iters) {
  fn();  // warm
  double best = 1e30;
  for (int rep = 0; rep < 5; ++rep) {
    const double t0 = now_seconds();
    for (int it = 0; it < iters; ++it) fn();
    best = std::min(best, (now_seconds() - t0) / iters);
  }
  return best;
}

}  // namespace

int main() {
  Rng rng(7);
  const Shape shapes[] = {
      {48, 48, "proj 48x48"},
      {48, 96, "mlp_up 48x96"},
      {96, 48, "mlp_down 96x48"},
      {48, 512, "head 48x512"},
      {128, 128, "gemm tile 128x128"},
  };
  std::printf("active tier: %s\n", kernels::active().name);
  for (const Shape& s : shapes) {
    Matrix w(s.in, s.out);
    w.randomize(rng, 0.5f);
    Matrix x(1, s.in), y_ref(1, s.out);
    for (float& v : x.flat()) v = static_cast<float>(rng.next_gaussian());
    std::vector<float> y(s.out);
    QuantizedMatrix q8 = QuantizedMatrix::quantize(w, QuantMode::Int8);
    QuantizedMatrix q16 = QuantizedMatrix::quantize(w, QuantMode::Fp16);
    hpcgpt::tensor::matmul(x, w, y_ref);

    // Correctness cross-check before timing: quantized outputs must stay
    // within coarse dynamic-quantization error of fp32.
    q8.gemv(x.row(0), y);
    float max_err = 0.0f, ref_amax = 0.0f;
    for (std::size_t j = 0; j < s.out; ++j) {
      max_err = std::max(max_err, std::fabs(y[j] - y_ref.at(0, j)));
      ref_amax = std::max(ref_amax, std::fabs(y_ref.at(0, j)));
    }
    if (max_err > 0.05f * ref_amax + 0.05f) {
      std::printf("FAIL %s: int8 max err %.4f (ref amax %.4f)\n", s.label,
                  max_err, ref_amax);
      return 1;
    }

    const int iters = static_cast<int>(4e7 / double(s.in * s.out)) + 1;
    const double t32 =
        bench_loop([&] { hpcgpt::tensor::matmul(x, w, y_ref); }, iters);
    const double t8 = bench_loop([&] { q8.gemv(x.row(0), y); }, iters);
    const double t16 = bench_loop([&] { q16.gemv(x.row(0), y); }, iters);
    const double macs = double(s.in) * double(s.out);
    std::printf(
        "%-18s fp32 %7.1f ns  int8 %7.1f ns (%.2fx, %5.1f Gmac/s)  "
        "fp16 %7.1f ns (%.2fx)\n",
        s.label, t32 * 1e9, t8 * 1e9, t32 / t8, macs / t8 * 1e-9, t16 * 1e9,
        t32 / t16);
  }
  return 0;
}
