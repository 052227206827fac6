#pragma once
/// \file replica.hpp
/// \brief A core::ParticleFilter driven in lockstep with a Localizer.
///
/// The replica receives the same inputs as the production Localizer and
/// calls the filter phases in the order Localizer::step_filter calls
/// them: beam extraction, then either the lone motion phase (gate
/// closed) or fused motion+observation, resample, pose and adaptation.
/// Each phase is a span, so the traced run times the phases on exactly
/// the production work; the caller requires the replica's pose trace to
/// be bit-identical to the Localizer's, which proves it is that work.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "bench.hpp"
#include "core/localizer.hpp"
#include "core/particle_filter.hpp"
#include "sensor/beam_model.hpp"

namespace perfbench {

class Replica {
 public:
  using Filter = core::ParticleFilter<core::Fp32QmTraits>;

  /// `config` is the per-session configuration (seed and particle budget
  /// resolved) of the Localizer this replica shadows.
  Replica(const core::MapResources& maps, const core::LocalizerConfig& config,
          core::Executor& executor, Tracer& tracer,
          std::shared_ptr<core::ParticleArena> arena = nullptr)
      : config_(config),
        maps_(&maps),
        filter_(make_filter(maps, config, executor, std::move(arena))),
        tracer_(&tracer),
        extract_(tracer.name("sensor.extract")),
        motion_only_(tracer.name("core.motion_only")),
        motion_observation_(tracer.name("core.motion_observation")),
        resample_(tracer.name("core.resample")),
        pose_(tracer.name("core.pose")),
        adapt_(tracer.name("core.adapt")) {}

  void start_global() {
    filter_.init_uniform(maps_->free_cells, maps_->cell_jitter);
    last_motion_ = current_;
    gate_ = current_;
  }

  void start_at(const Pose2& pose, double sigma_xy, double sigma_yaw) {
    filter_.init_gaussian(pose, sigma_xy, sigma_yaw);
    filter_.set_injection_support(maps_->free_cells, maps_->cell_jitter);
    last_motion_ = current_;
    gate_ = current_;
  }

  void on_odometry(const Pose2& odom) {
    current_ = odom;
    if (!last_motion_) last_motion_ = odom;
    if (!gate_) gate_ = odom;
  }

  /// One input's frames; returns true when the correction ran.
  bool on_frames(std::span<const sensor::TofFrame> frames) {
    if (!current_ || !last_motion_) return false;
    beams_.clear();
    std::size_t usable = 0;
    {
      Tracer::Scope span(*tracer_, extract_);
      for (const sensor::TofFrame& frame : frames) {
        const auto it = std::find_if(
            config_.sensors.begin(), config_.sensors.end(),
            [&](const sensor::TofSensorConfig& s) {
              return s.sensor_id == frame.sensor_id;
            });
        const auto zones_expected = static_cast<std::size_t>(frame.side()) *
                                    static_cast<std::size_t>(frame.side());
        if (it == config_.sensors.end() || frame.mode != it->mode ||
            frame.zones.size() != zones_expected) {
          continue;
        }
        ++usable;
        const auto fb = sensor::extract_beams(frame, *it, config_.extraction);
        beams_.insert(beams_.end(), fb.begin(), fb.end());
      }
    }
    const Pose2 motion_delta = last_motion_->between(*current_);
    last_motion_ = current_;
    if (!frames.empty() && usable == 0) {
      Tracer::Scope span(*tracer_, motion_only_);
      filter_.motion_update(motion_delta);
      return false;
    }
    const Pose2 gate_delta = gate_->between(*current_);
    if (!(gate_delta.position.norm() >= config_.mcl.gate_dxy ||
          std::abs(gate_delta.yaw) >= config_.mcl.gate_dtheta)) {
      Tracer::Scope span(*tracer_, motion_only_);
      filter_.motion_update(motion_delta);
      return false;
    }
    {
      Tracer::Scope span(*tracer_, motion_observation_);
      filter_.motion_observation_update(motion_delta, beams_);
    }
    {
      Tracer::Scope span(*tracer_, resample_);
      filter_.resample();
    }
    {
      Tracer::Scope span(*tracer_, pose_);
      filter_.compute_pose();
    }
    {
      Tracer::Scope span(*tracer_, adapt_);
      filter_.adapt_particle_count();
    }
    gate_ = current_;
    return true;
  }

  const Filter& filter() const { return filter_; }

 private:
  static Filter make_filter(const core::MapResources& maps,
                            const core::LocalizerConfig& config,
                            core::Executor& executor,
                            std::shared_ptr<core::ParticleArena> arena) {
    const core::BeamModelParams params = core::beam_model_params(config.mcl);
    // The Localizer shares the prebuilt LUT when its parameters match the
    // filter's (hit + rand terms), and builds a private table otherwise.
    if (maps.lut && maps.lut_params.sigma_obs == params.sigma_obs &&
        maps.lut_params.z_hit == params.z_hit &&
        maps.lut_params.z_rand == params.z_rand) {
      return Filter(*maps.quantized_map, config.mcl, executor,
                    core::LutObservationModel(*maps.quantized_map, *maps.lut),
                    std::move(arena));
    }
    return Filter(*maps.quantized_map, config.mcl, executor, std::move(arena));
  }

  core::LocalizerConfig config_;
  const core::MapResources* maps_;
  Filter filter_;
  Tracer* tracer_;
  int extract_, motion_only_, motion_observation_, resample_, pose_, adapt_;
  std::optional<Pose2> current_, last_motion_, gate_;
  std::vector<sensor::Beam> beams_;
};

/// Bitwise pose equality (the determinism contract is bit-identity).
inline bool same_bits(const Pose2& a, const Pose2& b) {
  return std::bit_cast<std::uint64_t>(a.position.x) ==
             std::bit_cast<std::uint64_t>(b.position.x) &&
         std::bit_cast<std::uint64_t>(a.position.y) ==
             std::bit_cast<std::uint64_t>(b.position.y) &&
         std::bit_cast<std::uint64_t>(a.yaw) ==
             std::bit_cast<std::uint64_t>(b.yaw);
}

}  // namespace perfbench
