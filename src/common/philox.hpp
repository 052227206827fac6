#pragma once
/// \file philox.hpp
/// \brief Counter-based random numbers for the particle filter.
///
/// Philox4x32-10 (Salmon et al., "Parallel Random Numbers: As Easy as
/// 1, 2, 3", SC'11) maps a 128-bit counter and a 64-bit key to 128
/// random bits through ten rounds of 32×32→64 multiplies, xors and key
/// bumps. A draw is therefore a pure function of its coordinates, not of
/// how many draws came before it: the particle filter keys every draw by
/// (MclConfig::seed, filter step, stream, particle index), so draws do
/// not depend on the chunk count, the executor or the SIMD backend, and
/// the filter state carries one step counter instead of generator
/// streams.
///
/// The Gaussian path is branch-free Box–Muller in binary32 with
/// polynomial log and sin/cos written as plain multiplies and adds (no
/// fused multiply-add, no libm), in one fixed association. That is the
/// contract the vector motion kernels (src/core/kernels/) reproduce lane
/// for lane, bit for bit.
///
/// tofmcl::Rng (rng.hpp) stays the generator of everything outside the
/// filter: simulation, world generation, campaigns.

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>

namespace tofmcl::philox {

using Counter = std::array<std::uint32_t, 4>;
using Key = std::array<std::uint32_t, 2>;
using Block = std::array<std::uint32_t, 4>;

inline constexpr std::uint32_t kM0 = 0xD2511F53u;
inline constexpr std::uint32_t kM1 = 0xCD9E8D57u;
inline constexpr std::uint32_t kW0 = 0x9E3779B9u;  ///< Golden ratio.
inline constexpr std::uint32_t kW1 = 0xBB67AE85u;  ///< sqrt(3) - 1.
inline constexpr int kRounds = 10;

/// Philox4x32-10 of `ctr` under `key`.
constexpr Block philox4x32(Counter ctr, Key key) {
  for (int round = 0; round < kRounds; ++round) {
    if (round > 0) {
      key[0] += kW0;
      key[1] += kW1;
    }
    const std::uint64_t p0 = std::uint64_t{kM0} * ctr[0];
    const std::uint64_t p1 = std::uint64_t{kM1} * ctr[2];
    ctr = {static_cast<std::uint32_t>(p1 >> 32) ^ ctr[1] ^ key[0],
           static_cast<std::uint32_t>(p1),
           static_cast<std::uint32_t>(p0 >> 32) ^ ctr[3] ^ key[1],
           static_cast<std::uint32_t>(p0)};
  }
  return ctr;
}

/// What a draw is for; the counter's second word, so draws of different
/// purposes at the same step and index never share a counter.
enum class Stream : std::uint32_t {
  kInit = 1,           ///< Initial cloud (uniform or Gaussian).
  kMotion = 2,         ///< Motion-model noise.
  kResampleWheel = 3,  ///< The systematic wheel's offset.
  kInjection = 4,      ///< Recovery injection: coin, cell, x/y jitter.
  kInjectionYaw = 5,   ///< Recovery injection: yaw.
};

/// The filter's key: its seed.
constexpr Key key_of(std::uint64_t seed) {
  return {static_cast<std::uint32_t>(seed),
          static_cast<std::uint32_t>(seed >> 32)};
}

/// The filter's counter: (index, stream, step).
constexpr Counter counter_of(std::uint32_t index, Stream stream,
                             std::uint64_t step) {
  return {index, static_cast<std::uint32_t>(stream),
          static_cast<std::uint32_t>(step),
          static_cast<std::uint32_t>(step >> 32)};
}

/// Uniform double in [0, 1) with 32 bits.
constexpr double unit_double(std::uint32_t r) {
  return static_cast<double>(r) * 0x1.0p-32;
}

/// Uniform double in [0, 1) with 53 bits from two words.
constexpr double unit_double53(std::uint32_t hi, std::uint32_t lo) {
  const std::uint64_t bits =
      (std::uint64_t{hi} << 21) | std::uint64_t{lo >> 11};
  return static_cast<double>(bits) * 0x1.0p-53;
}

/// Uniform double in [lo, hi) from one word.
constexpr double uniform(std::uint32_t r, double lo, double hi) {
  return lo + (hi - lo) * unit_double(r);
}

/// Index in [0, n) from one word (multiply-shift; n ≤ 2^32).
constexpr std::uint64_t index_below(std::uint32_t r, std::uint64_t n) {
  return (std::uint64_t{r} * n) >> 32;
}

// --- binary32 elementary functions -----------------------------------
//
// Coefficients are the Cephes single-precision minimax sets. Each line
// is one IEEE operation in a fixed order; the vector kernels spell out
// the same sequence.

/// Natural log for normal positive `u`: u = m·2^e with m in
/// [√½, √2), log u = e·ln2 + log m, log m by a degree-9 polynomial in
/// m − 1 (ln2 split in two so e·ln2_hi is exact).
inline float log_f(float u) {
  const std::uint32_t bits = std::bit_cast<std::uint32_t>(u);
  std::int32_t e = static_cast<std::int32_t>(bits >> 23) - 126;
  const float m = std::bit_cast<float>((bits & 0x007FFFFFu) | 0x3F000000u);
  const bool below = m < 0.707106781186547524f;
  e -= below ? 1 : 0;
  const float x = (m + (below ? m : 0.0f)) - 1.0f;
  const float z = x * x;
  float y = 7.0376836292e-2f;
  y = y * x - 1.1514610310e-1f;
  y = y * x + 1.1676998740e-1f;
  y = y * x - 1.2420140846e-1f;
  y = y * x + 1.4249322787e-1f;
  y = y * x - 1.6668057665e-1f;
  y = y * x + 2.0000714765e-1f;
  y = y * x - 2.4999993993e-1f;
  y = y * x + 3.3333331174e-1f;
  y = (y * x) * z;
  const float fe = static_cast<float>(e);
  y = y + fe * -2.12194440e-4f;
  y = y - 0.5f * z;
  return (x + y) + fe * 0.693359375f;
}

struct SinCos {
  float sin = 0.0f;
  float cos = 1.0f;
};

/// sin/cos of r + q·π/2 for |r| ≤ π/4: two short polynomials, then the
/// quadrant swaps them and flips signs through the sign bit.
inline SinCos sincos_quadrant(float r, std::uint32_t q) {
  const float z = r * r;
  float ps = -1.9515295891e-4f;
  ps = ps * z + 8.3321608736e-3f;
  ps = ps * z - 1.6666654611e-1f;
  const float s = ((ps * z) * r) + r;
  float pc = 2.443315711809948e-5f;
  pc = pc * z - 1.388731625493765e-3f;
  pc = pc * z + 4.166664568298827e-2f;
  const float c = (((pc * z) * z) - 0.5f * z) + 1.0f;
  const bool swap = (q & 1u) != 0;
  const std::uint32_t sin_sign = (q & 2u) << 30;
  const std::uint32_t cos_sign = ((q + 1u) & 2u) << 30;
  return {std::bit_cast<float>(std::bit_cast<std::uint32_t>(swap ? c : s) ^
                               sin_sign),
          std::bit_cast<float>(std::bit_cast<std::uint32_t>(swap ? s : c) ^
                               cos_sign)};
}

/// Float constants of the angle reduction. π/2 is split in three so
/// j·kPio2Hi is exact for |j| < 2^16.
inline constexpr float kTwoOverPi = 0.636619772367581343f;
inline constexpr float kPio2Hi = 1.5703125f;
inline constexpr float kPio2Mid = 4.837512969970703125e-4f;
inline constexpr float kPio2Lo = 7.54978995489188216e-8f;
/// 1.5·2^23: adding and subtracting it rounds to the nearest integer
/// (ties to even) and leaves that integer in the low mantissa bits.
inline constexpr float kRoundShifter = 12582912.0f;

/// sin/cos of any float angle with |a| < 2^22: Cody–Waite reduction by
/// the nearest multiple of π/2, whose parity bits come straight from the
/// shifter's mantissa (no float→int conversion, defined for any input).
inline SinCos sincos_f(float a) {
  const float shifted = a * kTwoOverPi + kRoundShifter;
  const float j = shifted - kRoundShifter;
  const float r = ((a - j * kPio2Hi) - j * kPio2Mid) - j * kPio2Lo;
  return sincos_quadrant(r, std::bit_cast<std::uint32_t>(shifted) & 3u);
}

/// sin/cos of 2π·k/2^24 for a 24-bit integer k. The reduction by
/// quarter turns is integer arithmetic, so it is exact.
inline SinCos sincos_turn24(std::uint32_t k) {
  const std::uint32_t q = (k + (1u << 21)) >> 22;
  const auto f = static_cast<std::int32_t>(k - (q << 22));
  const float r = static_cast<float>(f) * 0x1.921fb6p-22f;  // 2π / 2^24
  return sincos_quadrant(r, q);
}

/// Two standard normal deviates from two words (Box–Muller): the radius
/// from a uniform in (0, 1], the angle from the other word's top 24 bits.
struct GaussianPair {
  float g0 = 0.0f;
  float g1 = 0.0f;
};

inline GaussianPair box_muller(std::uint32_t r_radius, std::uint32_t r_angle) {
  const float u =
      static_cast<float>(static_cast<std::int32_t>((r_radius >> 8) + 1u)) *
      0x1.0p-24f;
  const float radius = std::sqrt(-2.0f * log_f(u));
  const SinCos t = sincos_turn24(r_angle >> 8);
  return {radius * t.cos, radius * t.sin};
}

/// Three standard normal deviates from one Philox block (the fourth
/// word's pair partner is discarded).
struct Gaussian3 {
  float g0 = 0.0f;
  float g1 = 0.0f;
  float g2 = 0.0f;
};

inline Gaussian3 gaussian3(const Block& b) {
  const GaussianPair a = box_muller(b[0], b[1]);
  const GaussianPair c = box_muller(b[2], b[3]);
  return {a.g0, a.g1, c.g0};
}

}  // namespace tofmcl::philox
