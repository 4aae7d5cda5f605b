// Deterministic pseudo-random number generation.
//
// Every stochastic component in the library (delay models, workload drivers,
// psim's prism slot selection) takes an explicit seeded generator so that each
// experiment is reproducible bit-for-bit. We ship xoshiro256++ (public-domain
// algorithm by Blackman & Vigna) seeded via splitmix64, rather than
// std::mt19937, because it is faster, has a tiny state we can embed
// per-simulated-processor, and its output sequence is stable across standard
// library implementations.
#pragma once

#include <cstdint>
#include <limits>

namespace cnet {

/// One splitmix64 step; used for seeding and as a cheap hash.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ 1.0. Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) { reseed(seed); }

  constexpr void reseed(std::uint64_t seed) {
    for (auto& word : state_) word = splitmix64(seed);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return std::numeric_limits<result_type>::max(); }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire's method).
  std::uint64_t below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi);

  /// Uniform double in [0, 1).
  double unit();

  /// True with probability p.
  bool chance(double p) { return unit() < p; }

  /// Derive an independent child generator (for per-processor streams).
  Rng split();

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace cnet
