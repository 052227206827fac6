#pragma once
/// \file rng.hpp
/// \brief Deterministic, seedable random number generation.
///
/// The simulation side — sensor noise, sequence and world generation,
/// campaigns, experiment seeding — draws from this generator, so every
/// experiment in the paper-reproduction suite is reproducible from a
/// single seed. The engine is xoshiro256++ (small state, excellent
/// statistical quality, trivially portable), seeded through SplitMix64 as
/// recommended by its authors.
///
/// The particle filter does not use it: its initialization, motion noise,
/// resampling wheel and recovery injection are counter-based Philox draws
/// keyed by (seed, step, index) (philox.hpp), so they do not depend on
/// the chunk count, the executor or the SIMD backend.

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace tofmcl {

/// SplitMix64: used to expand a single 64-bit seed into engine state.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256++ engine. Satisfies the essentials of
/// std::uniform_random_bit_generator so it can be used with <random>
/// distributions, though tofmcl uses its own distribution helpers for exact
/// cross-platform reproducibility.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit constexpr Rng(std::uint64_t seed = 0x853C49E6748FEA9BULL) {
    SplitMix64 sm(seed);
    for (auto& w : state_) w = sm.next();
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<std::uint64_t>::max();
  }

  constexpr std::uint64_t operator()() { return next(); }

  constexpr std::uint64_t next() {
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

  /// Uniform double in [0, 1) with 53 bits of randomness.
  constexpr double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). n must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t uniform_index(std::uint64_t n) {
    const std::uint64_t threshold = (0 - n) % n;  // 2^64 mod n
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % n;
    }
  }

  /// Standard normal via Marsaglia polar method (cached second deviate).
  double gaussian() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    cached_ = v * factor;
    has_cached_ = true;
    return u * factor;
  }

  /// Normal with the given mean and standard deviation (σ ≥ 0).
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Returns true with probability p (clamped to [0, 1]).
  bool bernoulli(double p) { return uniform() < p; }

  /// Derive an independent child generator; used to give each sequence,
  /// seed-repetition and worker its own stream.
  constexpr Rng fork() { return Rng(next()); }

  /// Full generator state for snapshot/restore. The cached Gaussian
  /// deviate is part of the state: dropping it would desynchronize every
  /// stream restored mid-pair from its straight-through twin.
  struct Snapshot {
    std::array<std::uint64_t, 4> state{};
    double cached = 0.0;
    bool has_cached = false;
  };

  constexpr Snapshot snapshot() const { return {state_, cached_, has_cached_}; }

  constexpr void restore(const Snapshot& s) {
    state_ = s.state;
    cached_ = s.cached;
    has_cached_ = s.has_cached;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace tofmcl
