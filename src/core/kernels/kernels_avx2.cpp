/// \file kernels_avx2.cpp
/// \brief AVX2 + F16C observation sweep and motion step (8 particles per
/// block).
///
/// A lane-for-lane port of ParticleFilter::observation_step{,_mixture}
/// (the scalar determinism reference). Every arithmetic choice here
/// exists to reproduce the reference bit for bit on builds that do not
/// contract FMAs:
///
///  * The endpoint transform keeps the scalar association
///    ((x + c·bx) − s·by, (y + s·bx) + c·by) as separate mul/add/sub —
///    deliberately NO fused-multiply-add.
///  * cos/sin are evaluated per lane with the same scalar libm calls the
///    reference makes; there is no vector polynomial that would round
///    differently.
///  * Cell indexing reproduces QuantizedDistanceMap::code_at exactly:
///    widen the float endpoint to double, subtract the origin, DIVIDE by
///    the resolution (no reciprocal-multiply), floor, truncate — all in
///    IEEE double, all exact matches of the scalar ops.
///  * LUT/code fetches are scalar per lane: the codes are bytes (no
///    useful gather) and scalar loads cannot read out of bounds past the
///    table the way a masked gather could be miscoded to.
///  * fp16 stores use F16C with round-to-nearest-even, which converts
///    bit-identically to the software tofmcl::Half path (pinned by
///    tests/test_half.cpp against an exhaustive oracle).
///
/// The motion step is a lane-for-lane port of ParticleFilter::motion_step:
/// Philox4x32-10 on eight counters at once (32×32→64 multiplies through
/// _mm256_mul_epu32 on even and odd lanes), Box–Muller with the
/// polynomial log and quarter-turn sin/cos of common/philox.hpp, the
/// yaw's Cody–Waite sin/cos, and wrap_pi_f's two conditional ±2π adds in
/// double. Every line mirrors one scalar operation in the same order, so
/// positions and yaws equal the reference bit for bit.
///
/// This is the ONLY translation unit (with kernels_neon.cpp) allowed to
/// use vendor intrinsics — enforced by the `raw-intrinsics` lint rule.

#if defined(TOFMCL_KERNELS_AVX2)

#include <immintrin.h>

#include <cmath>
#include <cstdint>

#include "common/philox.hpp"
#include "core/kernels/observation_kernel.hpp"

namespace tofmcl::core::kernels {

namespace {

constexpr std::size_t kLanes = 8;

/// fp32 particle fields: plain unaligned vector loads/stores.
struct F32Io {
  static __m256 load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, __m256 v) { _mm256_storeu_ps(p, v); }
  static constexpr bool kFp32Storage = true;
};

/// fp16 particle fields: F16C widen on load, RNE narrow on store — both
/// bit-identical to the software Half conversions.
struct F16Io {
  static __m256 load(const Half* p) {
    return _mm256_cvtph_ps(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
  }
  static void store(Half* p, __m256 v) {
    _mm_storeu_si128(
        reinterpret_cast<__m128i*>(p),
        _mm256_cvtps_ph(v, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
  }
  static constexpr bool kFp32Storage = false;
};

/// Floors ((e − origin) / resolution) for 8 float endpoints, in double —
/// QuantizedDistanceMap::code_at's arithmetic, four lanes at a time.
inline void floor_cells(__m256 e, __m256d origin, __m256d resolution,
                        double out[kLanes]) {
  const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(e));
  const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(e, 1));
  _mm256_storeu_pd(
      out, _mm256_floor_pd(_mm256_div_pd(_mm256_sub_pd(lo, origin),
                                         resolution)));
  _mm256_storeu_pd(
      out + 4, _mm256_floor_pd(_mm256_div_pd(_mm256_sub_pd(hi, origin),
                                             resolution)));
}

template <typename Io, typename Spans>
std::size_t sweep(const LutMapView& m, const BeamSweepView& bv,
                  const Spans& p, std::size_t begin, std::size_t end,
                  bool fp16_weights) {
  const std::size_t blocks = (end - begin) / kLanes;
  const __m256d origin_x = _mm256_set1_pd(m.origin_x);
  const __m256d origin_y = _mm256_set1_pd(m.origin_y);
  const __m256d resolution = _mm256_set1_pd(m.resolution);
  const __m256 per_beam_scale = _mm256_set1_ps(bv.per_beam_scale);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t i0 = begin + blk * kLanes;
    const __m256 x = Io::load(p.x + i0);
    const __m256 y = Io::load(p.y + i0);
    alignas(32) float yaw[kLanes];
    _mm256_store_ps(yaw, Io::load(p.yaw + i0));
    alignas(32) float cl[kLanes];
    alignas(32) float sl[kLanes];
    for (std::size_t l = 0; l < kLanes; ++l) {
      cl[l] = std::cos(yaw[l]);
      sl[l] = std::sin(yaw[l]);
    }
    const __m256 c = _mm256_load_ps(cl);
    const __m256 s = _mm256_load_ps(sl);
    __m256 w = Io::load(p.weight + i0);

    for (std::size_t b = 0; b < bv.count; ++b) {
      if (bv.aux != nullptr && bv.aux[b].gated) continue;
      const __m256 bx = _mm256_set1_ps(bv.beams[b].endpoint_body.x);
      const __m256 by = _mm256_set1_ps(bv.beams[b].endpoint_body.y);
      // ex = (x + c·bx) − s·by ; ey = (y + s·bx) + c·by — the reference
      // association, no FMA.
      const __m256 ex = _mm256_sub_ps(
          _mm256_add_ps(x, _mm256_mul_ps(c, bx)), _mm256_mul_ps(s, by));
      const __m256 ey = _mm256_add_ps(
          _mm256_add_ps(y, _mm256_mul_ps(s, bx)), _mm256_mul_ps(c, by));

      alignas(32) double fx[kLanes];
      alignas(32) double fy[kLanes];
      floor_cells(ex, origin_x, resolution, fx);
      floor_cells(ey, origin_y, resolution, fy);

      alignas(32) float factor[kLanes];
      for (std::size_t l = 0; l < kLanes; ++l) {
        const int cx = static_cast<int>(fx[l]);
        const int cy = static_cast<int>(fy[l]);
        const std::uint8_t code =
            (cx < 0 || cx >= m.width || cy < 0 || cy >= m.height)
                ? std::uint8_t{255}
                : m.codes[static_cast<std::size_t>(cy) *
                              static_cast<std::size_t>(m.width) +
                          static_cast<std::size_t>(cx)];
        factor[l] = m.lut[code];
      }
      __m256 f = _mm256_load_ps(factor);
      if (bv.aux != nullptr) {
        f = _mm256_mul_ps(_mm256_add_ps(f, _mm256_set1_ps(bv.aux[b].floor)),
                          _mm256_set1_ps(bv.aux[b].scale));
      } else {
        f = _mm256_mul_ps(f, per_beam_scale);
      }
      w = _mm256_mul_ps(w, f);
    }

    if (Io::kFp32Storage && fp16_weights) {
      // MclConfig::weight_precision == kFp16: round the fp32 weight
      // through binary16 (RNE), identical to the software Half
      // round-trip the scalar path applies.
      w = _mm256_cvtph_ps(
          _mm256_cvtps_ph(w, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC));
    }
    Io::store(p.weight + i0, w);
  }
  return blocks * kLanes;
}

// --- motion ------------------------------------------------------------

inline __m256i set1_u32(std::uint32_t v) {
  return _mm256_set1_epi32(static_cast<int>(v));
}

/// 32×32→64 products of eight lanes with one constant: low and high
/// words, lane for lane.
inline void mulhilo(__m256i a, __m256i m, __m256i& lo, __m256i& hi) {
  const __m256i even = _mm256_mul_epu32(a, m);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), m);
  lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
  hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
}

/// philox::philox4x32 on eight counters under one key.
inline void philox8(__m256i c0, __m256i c1, __m256i c2, __m256i c3,
                    std::uint32_t k0, std::uint32_t k1, __m256i out[4]) {
  const __m256i m0 = set1_u32(philox::kM0);
  const __m256i m1 = set1_u32(philox::kM1);
  for (int round = 0; round < philox::kRounds; ++round) {
    if (round > 0) {
      k0 += philox::kW0;
      k1 += philox::kW1;
    }
    __m256i lo0, hi0, lo1, hi1;
    mulhilo(c0, m0, lo0, hi0);
    mulhilo(c2, m1, lo1, hi1);
    c0 = _mm256_xor_si256(_mm256_xor_si256(hi1, c1), set1_u32(k0));
    c1 = lo1;
    c2 = _mm256_xor_si256(_mm256_xor_si256(hi0, c3), set1_u32(k1));
    c3 = lo0;
  }
  out[0] = c0;
  out[1] = c1;
  out[2] = c2;
  out[3] = c3;
}

/// philox::log_f, lane-wise.
inline __m256 log8(__m256 u) {
  const __m256i bits = _mm256_castps_si256(u);
  __m256i e = _mm256_sub_epi32(_mm256_srli_epi32(bits, 23),
                               _mm256_set1_epi32(126));
  const __m256 m = _mm256_castsi256_ps(
      _mm256_or_si256(_mm256_and_si256(bits, _mm256_set1_epi32(0x007FFFFF)),
                      _mm256_set1_epi32(0x3F000000)));
  const __m256 below =
      _mm256_cmp_ps(m, _mm256_set1_ps(0.707106781186547524f), _CMP_LT_OQ);
  e = _mm256_add_epi32(e, _mm256_castps_si256(below));  // −1 where below
  const __m256 x = _mm256_sub_ps(_mm256_add_ps(m, _mm256_and_ps(below, m)),
                                 _mm256_set1_ps(1.0f));
  const __m256 z = _mm256_mul_ps(x, x);
  const auto madd = [&](__m256 y, float c) {
    return _mm256_add_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(c));
  };
  const auto msub = [&](__m256 y, float c) {
    return _mm256_sub_ps(_mm256_mul_ps(y, x), _mm256_set1_ps(c));
  };
  __m256 y = _mm256_set1_ps(7.0376836292e-2f);
  y = msub(y, 1.1514610310e-1f);
  y = madd(y, 1.1676998740e-1f);
  y = msub(y, 1.2420140846e-1f);
  y = madd(y, 1.4249322787e-1f);
  y = msub(y, 1.6668057665e-1f);
  y = madd(y, 2.0000714765e-1f);
  y = msub(y, 2.4999993993e-1f);
  y = madd(y, 3.3333331174e-1f);
  y = _mm256_mul_ps(_mm256_mul_ps(y, x), z);
  const __m256 fe = _mm256_cvtepi32_ps(e);
  y = _mm256_add_ps(y, _mm256_mul_ps(fe, _mm256_set1_ps(-2.12194440e-4f)));
  y = _mm256_sub_ps(y, _mm256_mul_ps(_mm256_set1_ps(0.5f), z));
  return _mm256_add_ps(_mm256_add_ps(x, y),
                       _mm256_mul_ps(fe, _mm256_set1_ps(0.693359375f)));
}

/// philox::sincos_quadrant, lane-wise.
inline void sincos_quadrant8(__m256 r, __m256i q, __m256& sin_out,
                             __m256& cos_out) {
  const __m256 z = _mm256_mul_ps(r, r);
  __m256 ps = _mm256_set1_ps(-1.9515295891e-4f);
  ps = _mm256_add_ps(_mm256_mul_ps(ps, z), _mm256_set1_ps(8.3321608736e-3f));
  ps = _mm256_sub_ps(_mm256_mul_ps(ps, z), _mm256_set1_ps(1.6666654611e-1f));
  const __m256 s = _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(ps, z), r), r);
  __m256 pc = _mm256_set1_ps(2.443315711809948e-5f);
  pc = _mm256_sub_ps(_mm256_mul_ps(pc, z),
                     _mm256_set1_ps(1.388731625493765e-3f));
  pc = _mm256_add_ps(_mm256_mul_ps(pc, z),
                     _mm256_set1_ps(4.166664568298827e-2f));
  const __m256 c = _mm256_add_ps(
      _mm256_sub_ps(_mm256_mul_ps(_mm256_mul_ps(pc, z), z),
                    _mm256_mul_ps(_mm256_set1_ps(0.5f), z)),
      _mm256_set1_ps(1.0f));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i two = _mm256_set1_epi32(2);
  const __m256 swap = _mm256_castsi256_ps(
      _mm256_cmpeq_epi32(_mm256_and_si256(q, one), one));
  const __m256i sin_sign = _mm256_slli_epi32(_mm256_and_si256(q, two), 30);
  const __m256i cos_sign =
      _mm256_slli_epi32(_mm256_and_si256(_mm256_add_epi32(q, one), two), 30);
  sin_out = _mm256_xor_ps(_mm256_blendv_ps(s, c, swap),
                          _mm256_castsi256_ps(sin_sign));
  cos_out = _mm256_xor_ps(_mm256_blendv_ps(c, s, swap),
                          _mm256_castsi256_ps(cos_sign));
}

/// philox::sincos_f, lane-wise.
inline void sincos8(__m256 a, __m256& sin_out, __m256& cos_out) {
  const __m256 shifter = _mm256_set1_ps(philox::kRoundShifter);
  const __m256 shifted = _mm256_add_ps(
      _mm256_mul_ps(a, _mm256_set1_ps(philox::kTwoOverPi)), shifter);
  const __m256 j = _mm256_sub_ps(shifted, shifter);
  const __m256 r = _mm256_sub_ps(
      _mm256_sub_ps(
          _mm256_sub_ps(a, _mm256_mul_ps(j, _mm256_set1_ps(philox::kPio2Hi))),
          _mm256_mul_ps(j, _mm256_set1_ps(philox::kPio2Mid))),
      _mm256_mul_ps(j, _mm256_set1_ps(philox::kPio2Lo)));
  sincos_quadrant8(
      r,
      _mm256_and_si256(_mm256_castps_si256(shifted), _mm256_set1_epi32(3)),
      sin_out, cos_out);
}

/// philox::box_muller, lane-wise.
inline void box_muller8(__m256i r_radius, __m256i r_angle, __m256& g0,
                        __m256& g1) {
  const __m256 u = _mm256_mul_ps(
      _mm256_cvtepi32_ps(
          _mm256_add_epi32(_mm256_srli_epi32(r_radius, 8), _mm256_set1_epi32(1))),
      _mm256_set1_ps(0x1.0p-24f));
  const __m256 radius =
      _mm256_sqrt_ps(_mm256_mul_ps(_mm256_set1_ps(-2.0f), log8(u)));
  const __m256i k = _mm256_srli_epi32(r_angle, 8);
  const __m256i q = _mm256_srli_epi32(
      _mm256_add_epi32(k, _mm256_set1_epi32(1 << 21)), 22);
  const __m256i f = _mm256_sub_epi32(k, _mm256_slli_epi32(q, 22));
  const __m256 r =
      _mm256_mul_ps(_mm256_cvtepi32_ps(f), _mm256_set1_ps(0x1.921fb6p-22f));
  __m256 s, c;
  sincos_quadrant8(r, q, s, c);
  g0 = _mm256_mul_ps(radius, c);
  g1 = _mm256_mul_ps(radius, s);
}

/// wrap_pi_f on four lanes widened to double: the two conditional ±2π
/// adds, exact for |a| < 3π. Returns false if any lane is outside that
/// range (or NaN); the caller then wraps the block through the
/// reference.
inline bool wrap4(__m256d a, __m128& out) {
  const __m256d pi = _mm256_set1_pd(3.14159265358979323846);
  const __m256d two_pi = _mm256_set1_pd(2.0 * 3.14159265358979323846);
  const __m256d abs_a = _mm256_andnot_pd(_mm256_set1_pd(-0.0), a);
  const __m256d in_range =
      _mm256_cmp_pd(abs_a, _mm256_set1_pd(3.0 * 3.14159265358979323846),
                    _CMP_LT_OQ);
  const __m256d above = _mm256_cmp_pd(a, pi, _CMP_GT_OQ);
  const __m256d below = _mm256_cmp_pd(a, _mm256_sub_pd(_mm256_setzero_pd(), pi),
                                      _CMP_LE_OQ);
  a = _mm256_blendv_pd(a, _mm256_sub_pd(a, two_pi), above);
  a = _mm256_blendv_pd(a, _mm256_add_pd(a, two_pi), below);
  out = _mm256_cvtpd_ps(a);
  return _mm256_movemask_pd(in_range) == 0xF;
}

inline __m256 wrap8(__m256 a) {
  __m128 lo, hi;
  const bool lo_ok = wrap4(_mm256_cvtps_pd(_mm256_castps256_ps128(a)), lo);
  const bool hi_ok = wrap4(_mm256_cvtps_pd(_mm256_extractf128_ps(a, 1)), hi);
  if (lo_ok && hi_ok) return _mm256_set_m128(hi, lo);
  alignas(32) float lanes[kLanes];
  _mm256_store_ps(lanes, a);
  for (float& v : lanes) v = wrap_pi_reference(v);
  return _mm256_load_ps(lanes);
}

template <typename Io, typename Spans>
std::size_t motion(const MotionDraw& d, const Spans& p, std::size_t begin,
                   std::size_t end) {
  const std::size_t blocks = (end - begin) / kLanes;
  // philox::counter_of(i, kMotion, step) and philox::key_of(seed),
  // spelled out: this TU calls no inline helper that other TUs also
  // instantiate at the baseline ISA.
  const __m256i c1 =
      set1_u32(static_cast<std::uint32_t>(philox::Stream::kMotion));
  const __m256i c2 = set1_u32(static_cast<std::uint32_t>(d.step));
  const __m256i c3 = set1_u32(static_cast<std::uint32_t>(d.step >> 32));
  const auto k0 = static_cast<std::uint32_t>(d.seed);
  const auto k1 = static_cast<std::uint32_t>(d.seed >> 32);
  const __m256i lane_index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  const __m256 dx0 = _mm256_set1_ps(d.dx0);
  const __m256 dy0 = _mm256_set1_ps(d.dy0);
  const __m256 dyaw0 = _mm256_set1_ps(d.dyaw0);
  const __m256 sxy = _mm256_set1_ps(d.sigma_xy);
  const __m256 syaw = _mm256_set1_ps(d.sigma_yaw);
  for (std::size_t blk = 0; blk < blocks; ++blk) {
    const std::size_t i0 = begin + blk * kLanes;
    const __m256i index =
        _mm256_add_epi32(set1_u32(static_cast<std::uint32_t>(i0)), lane_index);
    __m256i w[4];
    philox8(index, c1, c2, c3, k0, k1, w);
    __m256 g0, g1, g2, unused;
    box_muller8(w[0], w[1], g0, g1);
    box_muller8(w[2], w[3], g2, unused);
    const __m256 dx = _mm256_add_ps(dx0, _mm256_mul_ps(sxy, g0));
    const __m256 dy = _mm256_add_ps(dy0, _mm256_mul_ps(sxy, g1));
    const __m256 dyaw = _mm256_add_ps(dyaw0, _mm256_mul_ps(syaw, g2));

    const __m256 yaw = Io::load(p.yaw + i0);
    __m256 s, c;
    sincos8(yaw, s, c);
    // x + c·dx − s·dy ; y + s·dx + c·dy — the reference association.
    const __m256 x = _mm256_sub_ps(
        _mm256_add_ps(Io::load(p.x + i0), _mm256_mul_ps(c, dx)),
        _mm256_mul_ps(s, dy));
    const __m256 y = _mm256_add_ps(
        _mm256_add_ps(Io::load(p.y + i0), _mm256_mul_ps(s, dx)),
        _mm256_mul_ps(c, dy));
    Io::store(p.x + i0, x);
    Io::store(p.y + i0, y);
    Io::store(p.yaw + i0, wrap8(_mm256_add_ps(yaw, dyaw)));
  }
  return blocks * kLanes;
}

}  // namespace

std::size_t motion_update_avx2(const MotionDraw& draw,
                               const MotionSpansF32& particles,
                               std::size_t begin, std::size_t end) {
  return motion<F32Io>(draw, particles, begin, end);
}

std::size_t motion_update_avx2(const MotionDraw& draw,
                               const MotionSpansF16& particles,
                               std::size_t begin, std::size_t end) {
  return motion<F16Io>(draw, particles, begin, end);
}

std::size_t observation_sweep_avx2(const LutMapView& map,
                                   const BeamSweepView& beams,
                                   const SweepSpansF32& particles,
                                   std::size_t begin, std::size_t end,
                                   bool fp16_weights) {
  return sweep<F32Io>(map, beams, particles, begin, end, fp16_weights);
}

std::size_t observation_sweep_avx2(const LutMapView& map,
                                   const BeamSweepView& beams,
                                   const SweepSpansF16& particles,
                                   std::size_t begin, std::size_t end,
                                   bool fp16_weights) {
  return sweep<F16Io>(map, beams, particles, begin, end, fp16_weights);
}

}  // namespace tofmcl::core::kernels

#endif  // defined(TOFMCL_KERNELS_AVX2)
