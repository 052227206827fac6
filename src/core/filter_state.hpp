#pragma once
/// \file filter_state.hpp
/// \brief The compact, relocatable half of the Localizer split.
///
/// A particle filter is two very different kinds of state glued together:
///
///   * the SCORING CONTEXT — distance maps, likelihood LUT, beam geometry,
///     resolved configuration. Megabytes, read-only after construction,
///     identical for every session localizing on the same map. One copy,
///     pointer-shared (see scoring_context.hpp).
///   * the FILTER STATE — the particle cloud, its double buffer, the
///     draw step counter, the pose estimate and the Augmented-MCL
///     recovery monitor. Kilobytes, mutated every correction, unique per
///     session.
///
/// This header defines the second half as a plain aggregate that owns no
/// map data and references nothing: it can be moved, pooled (the particle
/// blocks come from a per-map ParticleArena) and serialized byte-for-byte
/// (ParticleFilter::save_state / load_state), which is what makes session
/// eviction and snapshot/restore possible in the serving layer.
///
/// The observation structs (PoseEstimate, UpdateWorkload, InjectionMonitor,
/// BeamAux) live here rather than in particle_filter.hpp because they ARE
/// filter state — the filter template only operates on them.

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "core/particle_soa.hpp"

namespace tofmcl::core {

/// Upper bound on the logical chunk count (work distribution); the
/// prefix-sum scratch is statically sized by it.
inline constexpr std::size_t kMaxChunks = 64;

/// Filter output: the weighted-average pose plus dispersion measures used
/// for convergence monitoring.
struct PoseEstimate {
  Pose2 pose{};
  /// √(weighted variance of position), meters — small once converged.
  double position_stddev = 0.0;
  /// Length of the mean yaw resultant in [0, 1]; 1 = all particles agree.
  double yaw_concentration = 0.0;
  bool valid = false;
};

/// Workload of the most recent update cycle (consumed by the GAP9 timing
/// model and the benches).
struct UpdateWorkload {
  std::size_t particles = 0;
  std::size_t beams = 0;
  /// Beams the novelty gate excluded from the weight product (and with it
  /// the Augmented-MCL monitor) this update. Always 0 with gating off.
  std::size_t gated_beams = 0;
  /// Whether the novelty gate was armed for this update (estimate valid
  /// and tight enough) — diagnostics for tuning the arming criterion.
  bool novelty_armed = false;
};

/// State of the Augmented-MCL likelihood monitor (Probabilistic Robotics
/// §8.3), exposed for diagnostics and regression tests. Averages are of
/// the per-beam-normalized observation likelihood, so they are comparable
/// across beam counts and stay finite for arbitrarily many beams.
struct InjectionMonitor {
  double w_slow = 0.0;         ///< Long-term average likelihood.
  double w_fast = 0.0;         ///< Short-term average likelihood.
  double last_inject_p = 0.0;  ///< Injection fraction of the last resample.
};

/// Per-beam state of the mixture/gating path, computed once per update.
struct BeamAux {
  float floor = 0.0f;  ///< Short-return floor added to every factor.
  float scale = 1.0f;  ///< 1 / (z_hit + z_rand + floor).
  bool gated = false;  ///< Excluded from the weight product.
};

/// Everything a running filter mutates, in one relocatable aggregate.
///
/// Serialization contract (ParticleFilter::save_state): `particles`,
/// `step`, `estimate`, `monitor`, `blind_streak`, `prev_gated` and
/// `redraw_deficit` are the persistent state; everything else is scratch that the next update
/// fully rewrites (`back_buffer` is repartitioned by every resample,
/// `beam_aux`/chunk sums are per-update) or bookkeeping of the storage
/// itself (`block_capacity`) and is deliberately NOT serialized.
template <typename Scalar>
struct FilterState {
  ParticleSoA<Scalar> particles;
  ParticleSoA<Scalar> back_buffer;
  /// Arena size class both blocks were acquired with; 0 when the blocks
  /// are plain heap vectors (no arena).
  std::size_t block_capacity = 0;

  /// Draw step: the Philox counter's step word (common/philox.hpp),
  /// advanced once per randomized filter call. With the seed and a
  /// particle index it determines every random draw, so it is the
  /// filter's whole generator state — independent of the chunk count.
  std::uint64_t step = 0;

  PoseEstimate estimate;
  UpdateWorkload workload;
  InjectionMonitor monitor;
  /// Consecutive corrections in which the gate excluded EVERY beam.
  std::size_t blind_streak = 0;
  /// Whether the gate excluded any beam on the previous correction (see
  /// kArmedRedrawWeight).
  bool prev_gated = false;
  /// How far the weight sum the last resample left falls short of the
  /// particle count: Σ (1 − w) over its low-weight recovery redraws, 0
  /// when every weight is 1. The likelihood monitor divides the next
  /// observation's weight mass by (count − deficit).
  double redraw_deficit = 0.0;

  /// Scratch: per-beam mixture/gating state of the current update.
  std::vector<BeamAux> beam_aux;
  /// Scratch: per-chunk weight sums of the current resample.
  std::vector<double> chunk_sums;
  std::vector<double> chunk_sq_sums;
  std::array<double, kMaxChunks> chunk_prefix{};
  /// Scratch: packed occupancy-bin keys of the KLD adaptation pass.
  std::vector<std::int64_t> kld_keys;
};

}  // namespace tofmcl::core
