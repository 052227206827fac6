#pragma once
/// \file angles.hpp
/// \brief Angle arithmetic on the circle group.
///
/// Yaw estimation requires care: averaging particle orientations
/// arithmetically fails across the ±π seam, so pose computation uses the
/// circular (vector) mean, and convergence checks use the wrapped
/// difference.

#include <cmath>
#include <numbers>
#include <span>

namespace tofmcl {

inline constexpr double kPi = std::numbers::pi;
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;

constexpr double deg_to_rad(double deg) { return deg * kPi / 180.0; }
constexpr double rad_to_deg(double rad) { return rad * 180.0 / kPi; }

/// Wrap an angle to (-π, π].
inline double wrap_pi(double angle) {
  angle = std::remainder(angle, kTwoPi);
  // std::remainder yields [-π, π]; map the open end -π to +π.
  if (angle <= -kPi) angle += kTwoPi;
  return angle;
}

/// wrap_pi of a binary32 angle, rounded back to binary32 — the particle
/// yaw wrap. For |a| < 3π (every motion step of a wrapped yaw) one
/// conditional add of ∓2π gives std::remainder's result exactly: the
/// quotient's nearest integer is ±1 or 0, and a − 2π is exact in double
/// by Sterbenz's lemma for a in [π, 4π] (likewise a + 2π), while a float
/// never equals ±π or ±3π in double. Wider angles take the general path.
/// The vector motion kernels compute the same two branches lane-wise.
inline float wrap_pi_f(float angle) {
  double a = static_cast<double>(angle);
  if (!(std::abs(a) < 3.0 * kPi)) return static_cast<float>(wrap_pi(a));
  if (a > kPi) {
    a -= kTwoPi;
  } else if (a <= -kPi) {
    a += kTwoPi;
  }
  return static_cast<float>(a);
}

/// Wrap an angle to [0, 2π).
inline double wrap_two_pi(double angle) {
  angle = std::fmod(angle, kTwoPi);
  if (angle < 0.0) angle += kTwoPi;
  return angle;
}

/// Signed smallest difference a − b on the circle, in (-π, π].
inline double angle_diff(double a, double b) { return wrap_pi(a - b); }

/// Absolute angular distance between two headings, in [0, π].
inline double angle_dist(double a, double b) {
  return std::abs(angle_diff(a, b));
}

/// Weighted circular mean of headings. Returns 0 for empty input or when
/// the resultant vector (nearly) vanishes — antipodal mass has no
/// well-defined mean, so the standard degenerate-case convention applies.
/// The degeneracy test is relative to the total weight, which absorbs
/// floating-point residue from exactly-cancelling configurations.
inline double circular_mean(std::span<const double> angles,
                            std::span<const double> weights) {
  double sx = 0.0;
  double sy = 0.0;
  double total = 0.0;
  const std::size_t n = std::min(angles.size(), weights.size());
  for (std::size_t i = 0; i < n; ++i) {
    sx += weights[i] * std::cos(angles[i]);
    sy += weights[i] * std::sin(angles[i]);
    total += std::abs(weights[i]);
  }
  if (sx * sx + sy * sy <= 1e-24 * total * total) return 0.0;
  return std::atan2(sy, sx);
}

/// Unweighted circular mean.
inline double circular_mean(std::span<const double> angles) {
  double sx = 0.0;
  double sy = 0.0;
  for (const double a : angles) {
    sx += std::cos(a);
    sy += std::sin(a);
  }
  const auto total = static_cast<double>(angles.size());
  if (sx * sx + sy * sy <= 1e-24 * total * total) return 0.0;
  return std::atan2(sy, sx);
}

/// Linear interpolation on the circle along the shorter arc.
/// t = 0 returns a (wrapped), t = 1 returns b (wrapped).
inline double slerp_angle(double a, double b, double t) {
  return wrap_pi(a + t * angle_diff(b, a));
}

}  // namespace tofmcl
