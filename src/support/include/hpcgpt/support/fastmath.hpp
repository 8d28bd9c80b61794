#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

namespace hpcgpt {

/// Fast exponential for the inference hot loops (attention softmax,
/// SwiGLU): exp(x) = 2^(x·log2 e), with the integer part of the exponent
/// applied through the float exponent bits and the fraction through a
/// degree-7 Taylor polynomial of 2^f on [0, 1).
///
/// Relative error is below 2e-6 — far inside the noise floor of the
/// float32 dot products surrounding it — and unlike std::exp the body is
/// branch-free (the clamp compiles to min/max), so compilers vectorize
/// loops over it 8-wide. That matters: a decode step evaluates exp ~1k
/// times, and libm's scalar exp was a measurable slice of the decode
/// profile.
inline float fast_expf(float x) {
  constexpr float kLog2e = 1.4426950408889634f;
  // Clamp the base-2 exponent so the bit trick below cannot overflow:
  // 2^±126 spans every magnitude softmax/silu can produce.
  const float z = std::min(std::max(x * kLog2e, -126.0f), 126.0f);
  // Split z into an integer exponent and a fraction by plain truncation
  // (one vectorizable cvttps2dq; std::floor would be a libm call GCC
  // refuses to vectorize). For negative z truncation overshoots floor by
  // one, putting f in (-1, 0] instead of [0, 1) — harmless, because the
  // same ei feeds both the fraction and the exponent bits, so the result
  // is still 2^ei · 2^f = 2^z; the polynomial below is accurate on the
  // whole of (-1, 1).
  const std::int32_t ei = static_cast<std::int32_t>(z);
  const float f = z - static_cast<float>(ei);
  // 2^f = exp(f·ln2): Taylor coefficients ln2^k / k!.
  float p = 1.52527338e-5f;
  p = p * f + 1.54035304e-4f;
  p = p * f + 1.33335581e-3f;
  p = p * f + 9.61812911e-3f;
  p = p * f + 5.55041087e-2f;
  p = p * f + 2.40226507e-1f;
  p = p * f + 6.93147181e-1f;
  p = p * f + 1.0f;
  const auto bits = static_cast<std::uint32_t>(ei + 127) << 23;
  return p * std::bit_cast<float>(bits);
}

}  // namespace hpcgpt
