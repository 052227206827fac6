#pragma once
/// \file observation_kernel.hpp
/// \brief SIMD entry points for the observation sweep and the motion step.
///
/// The ParticleFilter's observation sweep (particle_filter.hpp,
/// observation_step{,_mixture}) is the hot loop of the whole system:
/// particles × beams endpoint transforms + quantized-map lookups + weight
/// products. This header is the seam between the header-template filter
/// and the backend translation units: plain-old-data views of everything
/// the sweep reads (no templates, no intrinsics), plus one dispatch
/// function per particle-scalar layout.
///
/// Contract with the caller (ParticleFilter::observation_sweep):
///  * observation_sweep() processes a PREFIX of [begin, end) — whole
///    vector blocks only — and returns how many particles it handled
///    (0 when the backend is scalar/unavailable). The caller runs the
///    scalar reference kernel over the remainder, so the tail arithmetic
///    is the reference arithmetic by construction, never a re-coded copy.
///  * Only the LUT observation model is vectorized: its factor is a pure
///    table gather. The DirectObservationModel (float EDT + expf) stays
///    on the scalar path — the caller never dispatches it here.
///  * Backends replicate the scalar kernel's exact float association
///    (see particle_filter.hpp transform_endpoint) and the quantized
///    map's double-precision cell indexing (map/distance_map.hpp
///    code_at), so equivalence holds to bit level wherever the build does
///    not contract FMAs; the tests gate on weight ULP + pose ATE.
///
/// The motion step (motion_update() below) follows the same prefix
/// contract. Its draws are Philox blocks keyed by (seed, step, particle
/// index) (common/philox.hpp), so a lane needs nothing but its index; the
/// kernels replicate the scalar Box–Muller, polynomial sin/cos and yaw
/// wrap operation for operation and match the reference bit for bit.

#include <cstddef>
#include <cstdint>

#include "core/filter_state.hpp"
#include "core/kernels/kernel_backend.hpp"
#include "fp16/half.hpp"
#include "sensor/beam_model.hpp"

namespace tofmcl::core::kernels {

/// Quantized map + likelihood table, flattened for the kernels. Geometry
/// stays in double — the cell-index arithmetic of
/// QuantizedDistanceMap::code_at is double-precision and the kernels must
/// reproduce it exactly. Out-of-bounds cells read code 255 (the map's
/// sentinel), which the 256-entry LUT maps like any other code.
struct LutMapView {
  const std::uint8_t* codes = nullptr;
  int width = 0;
  int height = 0;
  double origin_x = 0.0;
  double origin_y = 0.0;
  double resolution = 0.0;
  const float* lut = nullptr;  ///< 256 entries.
};

/// Per-update beam state. `aux` is null on the legacy (non-mixture) path,
/// where every beam multiplies by factor * per_beam_scale; non-null
/// selects the mixture path ((factor + aux.floor) * aux.scale, gated
/// beams skipped) with one entry per beam.
struct BeamSweepView {
  const sensor::Beam* beams = nullptr;
  const BeamAux* aux = nullptr;
  std::size_t count = 0;
  float per_beam_scale = 1.0f;
};

/// SoA particle field pointers, fp32 layout (Fp32QmTraits).
struct SweepSpansF32 {
  const float* x = nullptr;
  const float* y = nullptr;
  const float* yaw = nullptr;
  float* weight = nullptr;
};

/// SoA particle field pointers, fp16 layout (Fp16QmTraits).
struct SweepSpansF16 {
  const Half* x = nullptr;
  const Half* y = nullptr;
  const Half* yaw = nullptr;
  Half* weight = nullptr;
};

/// Per-update motion constants in the precision the scalar reference
/// (ParticleFilter::motion_step) computes with, plus the Philox
/// coordinates of the update's draws: key = seed, counter = (particle
/// index, philox::Stream::kMotion, step).
struct MotionDraw {
  float dx0 = 0.0f;
  float dy0 = 0.0f;
  float dyaw0 = 0.0f;
  float sigma_xy = 0.0f;
  float sigma_yaw = 0.0f;
  std::uint64_t seed = 0;
  std::uint64_t step = 0;
};

/// Mutable SoA pose fields, fp32 layout.
struct MotionSpansF32 {
  float* x = nullptr;
  float* y = nullptr;
  float* yaw = nullptr;
};

/// Mutable SoA pose fields, fp16 layout.
struct MotionSpansF16 {
  Half* x = nullptr;
  Half* y = nullptr;
  Half* yaw = nullptr;
};

/// Runs the backend's motion step over a whole-block prefix of
/// [begin, end); returns the number of particles moved (0 when the
/// backend has no motion kernel in this build — NEON runs the scalar
/// reference).
std::size_t motion_update(KernelBackend backend, const MotionDraw& draw,
                          const MotionSpansF32& particles, std::size_t begin,
                          std::size_t end);
std::size_t motion_update(KernelBackend backend, const MotionDraw& draw,
                          const MotionSpansF16& particles, std::size_t begin,
                          std::size_t end);

/// The scalar reference's yaw wrap (common/angles.hpp wrap_pi_f),
/// compiled out of line at the baseline ISA: the vector kernels call it
/// for lanes outside their fast range without instantiating an inline
/// copy under their own ISA flags.
float wrap_pi_reference(float angle);

/// Runs the backend's observation sweep over a whole-block prefix of
/// [begin, end); returns the number of particles processed (a multiple of
/// the backend's lane width; 0 if the backend has no kernel in this
/// build). `fp16_weights` additionally rounds each final weight through
/// binary16 before the fp32 store (MclConfig::weight_precision::kFp16).
std::size_t observation_sweep(KernelBackend backend, const LutMapView& map,
                              const BeamSweepView& beams,
                              const SweepSpansF32& particles,
                              std::size_t begin, std::size_t end,
                              bool fp16_weights);
std::size_t observation_sweep(KernelBackend backend, const LutMapView& map,
                              const BeamSweepView& beams,
                              const SweepSpansF16& particles,
                              std::size_t begin, std::size_t end,
                              bool fp16_weights);

/// Backend entry points (defined in kernels_<backend>.cpp when compiled
/// in — call through observation_sweep(), which guards availability).
std::size_t observation_sweep_avx2(const LutMapView& map,
                                   const BeamSweepView& beams,
                                   const SweepSpansF32& particles,
                                   std::size_t begin, std::size_t end,
                                   bool fp16_weights);
std::size_t observation_sweep_avx2(const LutMapView& map,
                                   const BeamSweepView& beams,
                                   const SweepSpansF16& particles,
                                   std::size_t begin, std::size_t end,
                                   bool fp16_weights);
std::size_t observation_sweep_neon(const LutMapView& map,
                                   const BeamSweepView& beams,
                                   const SweepSpansF32& particles,
                                   std::size_t begin, std::size_t end,
                                   bool fp16_weights);
std::size_t observation_sweep_neon(const LutMapView& map,
                                   const BeamSweepView& beams,
                                   const SweepSpansF16& particles,
                                   std::size_t begin, std::size_t end,
                                   bool fp16_weights);
std::size_t motion_update_avx2(const MotionDraw& draw,
                               const MotionSpansF32& particles,
                               std::size_t begin, std::size_t end);
std::size_t motion_update_avx2(const MotionDraw& draw,
                               const MotionSpansF16& particles,
                               std::size_t begin, std::size_t end);

}  // namespace tofmcl::core::kernels
