#pragma once

#include <cstdint>
#include <limits>
#include <utility>

namespace hpcgpt {

/// Deterministic, fast, splittable pseudo-random generator.
///
/// All randomized components in the repository (data generation, model
/// initialization, interpreter schedules) take an explicit Rng so that every
/// experiment is reproducible from a single seed. The engine is
/// xoshiro256** seeded via splitmix64; it satisfies the C++
/// UniformRandomBitGenerator requirements so it can also drive <random>
/// distributions.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Re-initializes the state from `seed` (splitmix64 expansion).
  void reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& word : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      word = z ^ (z >> 31);
    }
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be positive.
  std::uint64_t next_below(std::uint64_t bound) {
    // Lemire's multiply-shift rejection method: unbiased and branch-light.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi) {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(next_below(span));
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform float in [0, 1).
  float next_float() {
    return static_cast<float>((*this)() >> 40) * 0x1.0p-24f;
  }

  /// Standard normal via Box–Muller (one value per call, no caching).
  double next_gaussian() {
    double u1 = next_double();
    while (u1 <= 0.0) u1 = next_double();
    const double u2 = next_double();
    constexpr double two_pi = 6.283185307179586476925286766559;
    return __builtin_sqrt(-2.0 * __builtin_log(u1)) *
           __builtin_cos(two_pi * u2);
  }

  /// Bernoulli trial with success probability `p`.
  bool next_bool(double p = 0.5) { return next_double() < p; }

  /// A statistically independent child generator (for per-worker streams).
  Rng split() { return Rng((*this)() ^ 0xdeadbeefcafef00dULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

/// Fisher–Yates shuffle of a random-access container using `rng`.
template <typename Container>
void shuffle(Container& items, Rng& rng) {
  if (items.size() < 2) return;
  for (std::size_t i = items.size() - 1; i > 0; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i + 1));
    using std::swap;
    swap(items[i], items[j]);
  }
}

/// Picks a uniformly random element (const reference) from `items`.
template <typename Container>
const typename Container::value_type& choice(const Container& items,
                                             Rng& rng) {
  return items[static_cast<std::size_t>(rng.next_below(items.size()))];
}

}  // namespace hpcgpt
