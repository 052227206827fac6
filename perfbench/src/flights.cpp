#include "flights.hpp"

#include <atomic>
#include <cmath>
#include <numbers>
#include <thread>
#include <utility>

#include "common/angles.hpp"
#include "common/rng.hpp"
#include "sim/dynamic_obstacles.hpp"

namespace perfbench {

namespace {

constexpr double kMapResolution = 0.05;
constexpr double kMapErrorSigma = 0.01;

/// Frames grouped by capture stamp; the odometry of an input is the last
/// sample at or before its stamp (the filter integrates odometry as a
/// relative delta at correction time, so feeding only that sample is
/// equivalent to feeding every one).
std::vector<serve::SessionInput> build_inputs(const sim::Sequence& seq) {
  std::vector<serve::SessionInput> inputs;
  std::size_t frame_idx = 0;
  for (const sim::StateSample& odom : seq.odometry) {
    while (frame_idx < seq.frames.size() &&
           seq.frames[frame_idx].timestamp_s <= odom.t) {
      const double stamp = seq.frames[frame_idx].timestamp_s;
      serve::SessionInput input;
      input.t = stamp;
      input.odometry = odom.pose;
      while (frame_idx < seq.frames.size() &&
             seq.frames[frame_idx].timestamp_s == stamp) {
        input.frames.push_back(seq.frames[frame_idx]);
        ++frame_idx;
      }
      inputs.push_back(std::move(input));
    }
  }
  return inputs;
}

}  // namespace

World large_maze_world() {
  sim::EvaluationEnvironment env = sim::evaluation_environment(2023);
  map::OccupancyGrid grid =
      sim::rasterize_environment(env, kMapResolution, kMapErrorSigma);
  return World{"large_maze", std::move(env), std::move(grid),
               sim::standard_flight_plans(), sim::default_generator_config()};
}

World generated_world(sim::GeneratedWorldKind kind, std::uint64_t world_seed,
                      const std::string& key) {
  sim::WorldGenConfig config;
  config.seed = world_seed;
  sim::GeneratedWorld gen = sim::generate_world(kind, config);
  map::OccupancyGrid grid =
      sim::rasterize_environment(gen.env, kMapResolution, kMapErrorSigma);
  return World{key, std::move(gen.env), std::move(grid), std::move(gen.plans),
               sim::default_generator_config()};
}

std::vector<Flight> generate_flights(const std::vector<FlightSpec>& specs,
                                     std::size_t threads) {
  std::vector<Flight> flights(specs.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&] {
    for (std::size_t i = next++; i < specs.size(); i = next++) {
      const FlightSpec& spec = specs[i];
      sim::SequenceGeneratorConfig gen = spec.world->generator;
      if (spec.walkers > 0) {
        gen.obstacles = sim::scatter_obstacles_seeded(
            spec.world->plans, spec.walkers, 0.8, spec.data_seed);
      }
      Rng rng(spec.data_seed);
      const sim::Sequence seq = sim::generate_sequence(
          spec.world->env.world, spec.world->plans[spec.plan], gen, rng);
      Flight& f = flights[i];
      f.name = spec.world->key + "/" + spec.world->plans[spec.plan].name;
      f.world = spec.world;
      f.inputs = build_inputs(seq);
      f.ground_truth = seq.ground_truth;
      f.start_truth = seq.ground_truth.front().pose;
    }
  };
  std::vector<std::thread> pool;
  const std::size_t n = std::max<std::size_t>(1, std::min(threads, specs.size()));
  for (std::size_t t = 1; t < n; ++t) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  return flights;
}

std::size_t gate_openings(std::span<const serve::SessionInput> inputs,
                          const core::MclConfig& mcl) {
  if (inputs.empty()) return 0;
  std::size_t openings = 0;
  Pose2 gate = inputs.front().odometry;
  for (const serve::SessionInput& in : inputs) {
    const Pose2 delta = gate.between(in.odometry);
    if (delta.position.norm() >= mcl.gate_dxy ||
        std::abs(delta.yaw) >= mcl.gate_dtheta) {
      ++openings;
      gate = in.odometry;
    }
  }
  return openings;
}

PoseError pose_error(const Flight& flight, double t, const Pose2& estimate) {
  const Pose2 truth = sim::interpolate_pose(flight.ground_truth, t);
  return {(estimate.position - truth.position).norm(),
          angle_dist(estimate.yaw, truth.yaw)};
}

FlightVerdict judge_flight(const std::vector<PoseError>& errors) {
  constexpr double kPosGate = 0.2;
  constexpr double kYawGate = 36.0 * std::numbers::pi / 180.0;
  constexpr double kFailure = 1.0;
  constexpr std::size_t kStable = 3;
  FlightVerdict v;
  std::size_t streak = 0;
  std::size_t start = errors.size();
  for (std::size_t i = 0; i < errors.size(); ++i) {
    const bool in_gate =
        errors[i].pos_m <= kPosGate && errors[i].yaw_rad <= kYawGate;
    streak = in_gate ? streak + 1 : 0;
    if (streak == kStable) {
      start = i + 1 - kStable;
      break;
    }
  }
  if (start == errors.size()) return v;
  v.success = true;
  for (std::size_t i = start; i < errors.size(); ++i) {
    v.error_sum_after_convergence += errors[i].pos_m;
    ++v.samples_after_convergence;
    if (errors[i].pos_m > kFailure) v.success = false;
  }
  return v;
}

}  // namespace perfbench
