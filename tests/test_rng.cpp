// Statistical and determinism tests for the xoshiro256++ RNG wrapper and
// the particle filter's counter-based draws (Philox4x32-10, float
// Box–Muller, polynomial log and sin/cos). Determinism across runs
// underpins the reproducibility of every experiment in the bench suite.

#include "common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <set>
#include <vector>

#include "common/angles.hpp"
#include "common/philox.hpp"

#include "common/stats.hpp"

namespace tofmcl {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(Rng, UniformMeanAndVariance) {
  Rng rng(5);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.uniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
  EXPECT_NEAR(stats.variance(), 1.0 / 12.0, 0.005);
}

TEST(Rng, GaussianMoments) {
  Rng rng(6);
  RunningStats stats;
  for (int i = 0; i < 200000; ++i) stats.add(rng.gaussian());
  EXPECT_NEAR(stats.mean(), 0.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, GaussianScaledMoments) {
  Rng rng(7);
  RunningStats stats;
  for (int i = 0; i < 100000; ++i) stats.add(rng.gaussian(3.0, 0.5));
  EXPECT_NEAR(stats.mean(), 3.0, 0.02);
  EXPECT_NEAR(stats.stddev(), 0.5, 0.02);
}

TEST(Rng, GaussianTailFractions) {
  // ~68.3% within 1σ, ~95.4% within 2σ.
  Rng rng(8);
  int within1 = 0;
  int within2 = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double g = std::abs(rng.gaussian());
    if (g < 1.0) ++within1;
    if (g < 2.0) ++within2;
  }
  EXPECT_NEAR(static_cast<double>(within1) / n, 0.6827, 0.01);
  EXPECT_NEAR(static_cast<double>(within2) / n, 0.9545, 0.01);
}

TEST(Rng, UniformIndexCoversRangeUniformly) {
  Rng rng(9);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) ++counts[rng.uniform_index(10)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / n, 0.1, 0.01);
  }
}

TEST(Rng, UniformIndexSingleton) {
  Rng rng(10);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_index(1), 0u);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(11);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(12);
  Rng child = parent.fork();
  // The child stream should not simply replay the parent.
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (parent.next() == child.next()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, NoShortCycles) {
  // A tiny state-space bug would show up as repeated outputs quickly.
  Rng rng(13);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 10000; ++i) seen.insert(rng.next());
  EXPECT_EQ(seen.size(), 10000u);
}

// --- Philox4x32-10 and the float Gaussian path ------------------------

// Known answers, checked against an independent Python implementation
// of the SC'11 round function (they match the Random123 kat_vectors).
TEST(Philox, KnownAnswers) {
  using philox::Block;
  EXPECT_EQ(philox::philox4x32({0, 0, 0, 0}, {0, 0}),
            (Block{0x6627e8d5u, 0xe169c58du, 0xbc57ac4cu, 0x9b00dbd8u}));
  EXPECT_EQ(philox::philox4x32({0xffffffffu, 0xffffffffu, 0xffffffffu,
                                0xffffffffu},
                               {0xffffffffu, 0xffffffffu}),
            (Block{0x408f276du, 0x41c83b0eu, 0xa20bc7c6u, 0x6d5451fdu}));
  EXPECT_EQ(philox::philox4x32({0x243f6a88u, 0x85a308d3u, 0x13198a2eu,
                                0x03707344u},
                               {0xa4093822u, 0x299f31d0u}),
            (Block{0xd16cfe09u, 0x94fdccebu, 0x5001e420u, 0x24126ea1u}));
}

TEST(Philox, CounterLayoutSeparatesEveryCoordinate) {
  const auto block = [](std::uint32_t index, philox::Stream stream,
                        std::uint64_t step, std::uint64_t seed) {
    return philox::philox4x32(philox::counter_of(index, stream, step),
                              philox::key_of(seed));
  };
  const auto base = block(5, philox::Stream::kMotion, 9, 77);
  EXPECT_EQ(base, block(5, philox::Stream::kMotion, 9, 77));
  EXPECT_NE(base, block(6, philox::Stream::kMotion, 9, 77));
  EXPECT_NE(base, block(5, philox::Stream::kInit, 9, 77));
  EXPECT_NE(base, block(5, philox::Stream::kMotion, 10, 77));
  EXPECT_NE(base, block(5, philox::Stream::kMotion, 9 + (1ull << 32), 77));
  EXPECT_NE(base, block(5, philox::Stream::kMotion, 9, 78));
  EXPECT_NE(base, block(5, philox::Stream::kMotion, 9, 77 + (1ull << 32)));
}

// 2^20 Box–Muller deviates (both of every pair): moments, tail share and
// the Kolmogorov–Smirnov distance to N(0, 1).
TEST(Philox, BoxMullerIsStandardNormal) {
  constexpr std::size_t kBlocks = 1u << 18;
  std::vector<double> g;
  g.reserve(4 * kBlocks);
  for (std::uint32_t i = 0; i < kBlocks; ++i) {
    const philox::Block b = philox::philox4x32(
        philox::counter_of(i, philox::Stream::kMotion, 3),
        philox::key_of(2024));
    for (const philox::GaussianPair p :
         {philox::box_muller(b[0], b[1]), philox::box_muller(b[2], b[3])}) {
      g.push_back(p.g0);
      g.push_back(p.g1);
    }
  }
  const auto n = static_cast<double>(g.size());
  double mean = 0.0;
  for (const double v : g) mean += v;
  mean /= n;
  double m2 = 0.0;
  double m4 = 0.0;
  std::size_t beyond3 = 0;
  for (const double v : g) {
    const double d = v - mean;
    m2 += d * d;
    m4 += d * d * d * d;
    if (std::abs(v) > 3.0) ++beyond3;
  }
  m2 /= n;
  m4 /= n;
  // Standard errors at n = 2^20: mean 0.001, variance 0.0014, kurtosis
  // 0.0048, 3σ share 5.1e-5 — every bound is ≥ 5 of them.
  EXPECT_NEAR(mean, 0.0, 0.005);
  EXPECT_NEAR(m2, 1.0, 0.007);
  EXPECT_NEAR(m4 / (m2 * m2), 3.0, 0.025);
  EXPECT_NEAR(static_cast<double>(beyond3) / n, 0.0026998, 0.0003);

  std::sort(g.begin(), g.end());
  double ks = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double cdf = 0.5 * std::erfc(-g[i] / std::sqrt(2.0));
    ks = std::max({ks, std::abs(cdf - static_cast<double>(i) / n),
                   std::abs(static_cast<double>(i + 1) / n - cdf)});
  }
  // Critical value of the one-sample KS test at α = 0.01.
  EXPECT_LT(ks, 1.63 / std::sqrt(n));
}

TEST(Philox, Gaussian3TakesBothDeviatesOfTheFirstPair) {
  const philox::Block b{0x12345678u, 0x9abcdef0u, 0x0fedcba9u, 0x87654321u};
  const philox::Gaussian3 g = philox::gaussian3(b);
  const philox::GaussianPair a = philox::box_muller(b[0], b[1]);
  const philox::GaussianPair c = philox::box_muller(b[2], b[3]);
  EXPECT_EQ(g.g0, a.g0);
  EXPECT_EQ(g.g1, a.g1);
  EXPECT_EQ(g.g2, c.g0);
}

/// Distance in units in the last place between a float and the binary32
/// rounding of a double reference.
std::int64_t ulp_distance(float a, double ref) {
  const auto ordered = [](float v) -> std::int64_t {
    const auto bits = std::bit_cast<std::uint32_t>(v);
    const auto mag = static_cast<std::int64_t>(bits & 0x7FFFFFFFu);
    return (bits & 0x80000000u) == 0 ? mag : -mag;
  };
  return std::llabs(ordered(a) - ordered(static_cast<float>(ref)));
}

// The radius input: every u = k·2^-24, k in [1, 2^24] — the full domain
// Box–Muller feeds it.
TEST(Philox, PolynomialLogWithinOneUlpOfLibm) {
  std::int64_t worst = 0;
  for (std::uint32_t k = 1; k <= (1u << 24); ++k) {
    const float u = static_cast<float>(k) * 0x1.0p-24f;
    worst = std::max(worst,
                     ulp_distance(philox::log_f(u),
                                  std::log(static_cast<double>(u))));
  }
  EXPECT_LE(worst, 1);
}

// ULP error where |result| ≥ 1e-3 (near a zero the ULP shrinks toward
// the subnormals and the absolute error is the meaningful measure).
struct TrigError {
  std::int64_t ulp = 0;
  double abs = 0.0;
  void add(float got, double ref) {
    abs = std::max(abs, std::abs(static_cast<double>(got) - ref));
    if (std::abs(ref) >= 1e-3) ulp = std::max(ulp, ulp_distance(got, ref));
  }
};

// The motion step's yaw input: a dense grid over [-2π, 2π] (stored yaws
// are wrapped to (-π, π]; binary16 storage can round just past ±π).
TEST(Philox, PolynomialSinCosOfAngleWithinTwoUlpOfLibm) {
  TrigError s;
  TrigError c;
  constexpr int kSteps = 1 << 22;
  for (int i = 0; i <= kSteps; ++i) {
    const auto a = static_cast<float>(-2.0 * kPi + 4.0 * kPi * i / kSteps);
    const philox::SinCos t = philox::sincos_f(a);
    s.add(t.sin, std::sin(static_cast<double>(a)));
    c.add(t.cos, std::cos(static_cast<double>(a)));
  }
  EXPECT_LE(s.ulp, 2);
  EXPECT_LE(c.ulp, 2);
  EXPECT_LE(s.abs, 0x1.0p-23);
  EXPECT_LE(c.abs, 0x1.0p-23);
}

// The Box–Muller angle: every 24-bit turn fraction.
TEST(Philox, PolynomialSinCosOfTurnWithinTwoUlpOfLibm) {
  TrigError s;
  TrigError c;
  for (std::uint32_t k = 0; k < (1u << 24); ++k) {
    const double a = kTwoPi * static_cast<double>(k) * 0x1.0p-24;
    const philox::SinCos t = philox::sincos_turn24(k);
    s.add(t.sin, std::sin(a));
    c.add(t.cos, std::cos(a));
  }
  EXPECT_LE(s.ulp, 2);
  EXPECT_LE(c.ulp, 2);
  EXPECT_LE(s.abs, 0x1.0p-23);
  EXPECT_LE(c.abs, 0x1.0p-23);
}

}  // namespace
}  // namespace tofmcl
