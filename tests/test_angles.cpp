// Unit and property tests for common/angles.hpp. Correct circular
// arithmetic is critical for yaw averaging in the pose computation step and
// for the convergence criterion (36° threshold).

#include "common/angles.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.hpp"

namespace tofmcl {
namespace {

TEST(Angles, DegRadConversions) {
  EXPECT_DOUBLE_EQ(deg_to_rad(180.0), kPi);
  EXPECT_DOUBLE_EQ(rad_to_deg(kPi), 180.0);
  EXPECT_NEAR(deg_to_rad(36.0), 0.6283185307, 1e-9);
}

TEST(Angles, WrapPiBasics) {
  EXPECT_NEAR(wrap_pi(0.0), 0.0, 1e-12);
  EXPECT_NEAR(wrap_pi(kTwoPi), 0.0, 1e-12);
  EXPECT_NEAR(wrap_pi(-kTwoPi), 0.0, 1e-12);
  EXPECT_NEAR(wrap_pi(kPi + 0.1), -kPi + 0.1, 1e-12);
  EXPECT_NEAR(wrap_pi(-kPi - 0.1), kPi - 0.1, 1e-12);
  EXPECT_NEAR(wrap_pi(3.0 * kPi), kPi, 1e-12);
}

TEST(Angles, WrapPiRangeProperty) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.uniform(-100.0, 100.0);
    const double w = wrap_pi(a);
    EXPECT_GT(w, -kPi - 1e-12);
    EXPECT_LE(w, kPi + 1e-12);
    // Wrapped angle must be congruent mod 2π.
    EXPECT_NEAR(std::remainder(a - w, kTwoPi), 0.0, 1e-9);
  }
}

TEST(Angles, WrapTwoPiRangeProperty) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double a = rng.uniform(-100.0, 100.0);
    const double w = wrap_two_pi(a);
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, kTwoPi);
    EXPECT_NEAR(std::remainder(a - w, kTwoPi), 0.0, 1e-9);
  }
}

TEST(Angles, DiffAcrossSeam) {
  // 350° vs 10°: the short way round is 20°, not 340°.
  const double a = deg_to_rad(350.0);
  const double b = deg_to_rad(10.0);
  EXPECT_NEAR(angle_dist(a, b), deg_to_rad(20.0), 1e-12);
  EXPECT_NEAR(angle_diff(a, b), deg_to_rad(-20.0), 1e-12);
  EXPECT_NEAR(angle_diff(b, a), deg_to_rad(20.0), 1e-12);
}

TEST(Angles, DiffAntisymmetry) {
  Rng rng(8);
  for (int i = 0; i < 500; ++i) {
    const double a = rng.uniform(-10, 10);
    const double b = rng.uniform(-10, 10);
    const double d1 = angle_diff(a, b);
    const double d2 = angle_diff(b, a);
    // Antisymmetric except at the ±π boundary where both map to +π.
    if (std::abs(std::abs(d1) - kPi) > 1e-9) {
      EXPECT_NEAR(d1, -d2, 1e-9);
    }
  }
}

TEST(Angles, CircularMeanSimple) {
  const std::array<double, 2> angles{deg_to_rad(350.0), deg_to_rad(10.0)};
  const double m = circular_mean(angles);
  EXPECT_NEAR(angle_dist(m, 0.0), 0.0, 1e-9);
}

TEST(Angles, CircularMeanWeighted) {
  const std::array<double, 2> angles{0.0, kPi / 2.0};
  const std::array<double, 2> w_left{1.0, 0.0};
  const std::array<double, 2> w_right{0.0, 1.0};
  EXPECT_NEAR(circular_mean(angles, w_left), 0.0, 1e-12);
  EXPECT_NEAR(circular_mean(angles, w_right), kPi / 2.0, 1e-12);
}

TEST(Angles, CircularMeanDegenerate) {
  // Antipodal mass cancels; convention is 0.
  const std::array<double, 2> angles{0.0, kPi};
  EXPECT_DOUBLE_EQ(circular_mean(angles), 0.0);
  EXPECT_DOUBLE_EQ(circular_mean(std::span<const double>{}), 0.0);
}

TEST(Angles, CircularMeanShiftEquivariance) {
  // mean(angles + c) == mean(angles) + c (mod 2π) — the property that makes
  // the estimator frame-independent.
  Rng rng(9);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> angles(10);
    std::vector<double> weights(10);
    for (std::size_t i = 0; i < angles.size(); ++i) {
      angles[i] = rng.uniform(-0.8, 0.8);  // concentrated: mean well-defined
      weights[i] = rng.uniform(0.1, 1.0);
    }
    const double c = rng.uniform(-3.0, 3.0);
    const double base = circular_mean(angles, weights);
    for (auto& a : angles) a += c;
    const double shifted = circular_mean(angles, weights);
    EXPECT_NEAR(angle_dist(shifted, base + c), 0.0, 1e-9);
  }
}

// wrap_pi_f's two-branch fast path must equal the general
// std::remainder wrap for every float it serves — and the general path
// for every other. Exhaustive within 2^16 ulps of each branch edge
// (±π, ±3π), a dense grid over [-12, 12], and the special values.
TEST(Angles, WrapPiFloatEqualsGeneralWrap) {
  const auto same = [](float a) {
    const float fast = wrap_pi_f(a);
    const float general = static_cast<float>(wrap_pi(static_cast<double>(a)));
    if (std::isnan(general)) return std::isnan(fast);
    return std::bit_cast<std::uint32_t>(fast) ==
           std::bit_cast<std::uint32_t>(general);
  };
  for (const double edge : {-3.0 * kPi, -kPi, kPi, 3.0 * kPi}) {
    float a = static_cast<float>(edge);
    for (int i = 0; i < (1 << 16); ++i) a = std::nextafter(a, -100.0f);
    for (int i = 0; i < (1 << 17); ++i) {
      ASSERT_TRUE(same(a)) << a;
      a = std::nextafter(a, 100.0f);
    }
  }
  for (int i = 0; i <= 4000000; ++i) {
    const auto a = static_cast<float>(-12.0 + 24.0 * i / 4000000.0);
    ASSERT_TRUE(same(a)) << a;
  }
  for (const float a : {0.0f, -0.0f, 1e-30f, -1e-30f, 1e6f, -1e6f,
                        std::numeric_limits<float>::infinity(),
                        std::numeric_limits<float>::quiet_NaN()}) {
    EXPECT_TRUE(same(a)) << a;
  }
}

TEST(Angles, SlerpEndpointsAndMidpoint) {
  const double a = deg_to_rad(350.0);
  const double b = deg_to_rad(10.0);
  EXPECT_NEAR(angle_dist(slerp_angle(a, b, 0.0), a), 0.0, 1e-12);
  EXPECT_NEAR(angle_dist(slerp_angle(a, b, 1.0), b), 0.0, 1e-12);
  EXPECT_NEAR(angle_dist(slerp_angle(a, b, 0.5), 0.0), 0.0, 1e-12);
}

}  // namespace
}  // namespace tofmcl
