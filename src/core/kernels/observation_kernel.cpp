#include "core/kernels/observation_kernel.hpp"

#include "common/angles.hpp"

namespace tofmcl::core::kernels {

namespace {

template <typename Spans>
std::size_t dispatch(KernelBackend backend, const LutMapView& map,
                     const BeamSweepView& beams, const Spans& particles,
                     std::size_t begin, std::size_t end, bool fp16_weights) {
  switch (backend) {
    case KernelBackend::kAvx2:
#if defined(TOFMCL_KERNELS_AVX2)
      return observation_sweep_avx2(map, beams, particles, begin, end,
                                    fp16_weights);
#else
      break;
#endif
    case KernelBackend::kNeon:
#if defined(TOFMCL_KERNELS_NEON)
      return observation_sweep_neon(map, beams, particles, begin, end,
                                    fp16_weights);
#else
      break;
#endif
    case KernelBackend::kScalar:
      break;
  }
  return 0;  // caller falls back to the scalar reference kernel
}

template <typename Spans>
std::size_t dispatch_motion(KernelBackend backend,
                            [[maybe_unused]] const MotionDraw& draw,
                            [[maybe_unused]] const Spans& particles,
                            [[maybe_unused]] std::size_t begin,
                            [[maybe_unused]] std::size_t end) {
  switch (backend) {
    case KernelBackend::kAvx2:
#if defined(TOFMCL_KERNELS_AVX2)
      return motion_update_avx2(draw, particles, begin, end);
#else
      break;
#endif
    // NEON has no motion kernel: without an aarch64 toolchain a port
    // could not be checked against the reference, so it runs the scalar
    // step.
    case KernelBackend::kNeon:
    case KernelBackend::kScalar:
      break;
  }
  return 0;
}

}  // namespace

std::size_t motion_update(KernelBackend backend, const MotionDraw& draw,
                          const MotionSpansF32& particles, std::size_t begin,
                          std::size_t end) {
  return dispatch_motion(backend, draw, particles, begin, end);
}

std::size_t motion_update(KernelBackend backend, const MotionDraw& draw,
                          const MotionSpansF16& particles, std::size_t begin,
                          std::size_t end) {
  return dispatch_motion(backend, draw, particles, begin, end);
}

float wrap_pi_reference(float angle) { return wrap_pi_f(angle); }

std::size_t observation_sweep(KernelBackend backend, const LutMapView& map,
                              const BeamSweepView& beams,
                              const SweepSpansF32& particles,
                              std::size_t begin, std::size_t end,
                              bool fp16_weights) {
  return dispatch(backend, map, beams, particles, begin, end, fp16_weights);
}

std::size_t observation_sweep(KernelBackend backend, const LutMapView& map,
                              const BeamSweepView& beams,
                              const SweepSpansF16& particles,
                              std::size_t begin, std::size_t end,
                              bool fp16_weights) {
  return dispatch(backend, map, beams, particles, begin, end, fp16_weights);
}

}  // namespace tofmcl::core::kernels
