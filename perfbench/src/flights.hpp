#pragma once
/// \file flights.hpp
/// \brief Synthetic inputs of the benchmark: worlds, recorded flights and
/// the independent recomputations the output checks compare against.
///
/// Flights are generated by the simulator (src/sim) from seeds the
/// benchmark derives from --seed. The program under test receives only
/// the generated inputs: per frame-batch instant, the odometry estimate
/// and the ToF frames captured at that instant.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/mcl_config.hpp"
#include "map/occupancy_grid.hpp"
#include "serve/session.hpp"
#include "sim/dataset.hpp"
#include "sim/maze.hpp"
#include "sim/sequence_generator.hpp"
#include "sim/worldgen.hpp"

namespace perfbench {

/// A localization map together with the flight plans flown in it and the
/// sensor deck the frames are rendered with.
struct World {
  std::string key;
  sim::EvaluationEnvironment env;
  map::OccupancyGrid grid;
  std::vector<sim::FlightPlan> plans;
  sim::SequenceGeneratorConfig generator;
};

/// The paper's 31.2 m² large maze (drone maze + three artificial mazes,
/// layout seed 2023) with the six standard flight plans.
World large_maze_world();
/// A generated office / warehouse / loop-corridor world.
World generated_world(sim::GeneratedWorldKind kind, std::uint64_t world_seed,
                      const std::string& key);

struct FlightSpec {
  const World* world = nullptr;
  std::size_t plan = 0;
  std::uint64_t data_seed = 0;
  /// People-sized walkers crossing the route, rendered into the frames
  /// (the localization map never sees them).
  std::size_t walkers = 0;
};

struct Flight {
  std::string name;
  const World* world = nullptr;
  /// One input per frame-batch instant, in time order.
  std::vector<serve::SessionInput> inputs;
  std::vector<sim::StateSample> ground_truth;
  Pose2 start_truth{};
};

/// Simulates every flight (on up to `threads` threads; generation is
/// deterministic per spec whatever the schedule).
std::vector<Flight> generate_flights(const std::vector<FlightSpec>& specs,
                                     std::size_t threads);

/// The paper's asynchronous update gate recomputed from odometry alone:
/// how many of `inputs` open the dxy/dθ gate, starting from a gate
/// anchored at the first input's odometry.
std::size_t gate_openings(std::span<const serve::SessionInput> inputs,
                          const core::MclConfig& mcl);

/// Position / yaw error of `estimate` against the ground truth at `t`.
struct PoseError {
  double pos_m = 0.0;
  double yaw_rad = 0.0;
};
PoseError pose_error(const Flight& flight, double t, const Pose2& estimate);

/// The paper's success criterion over one flight's correction errors:
/// converged once within 0.2 m and 36° for three consecutive corrections,
/// then never beyond 1 m; and the position errors from convergence on.
struct FlightVerdict {
  bool success = false;
  std::size_t samples_after_convergence = 0;
  double error_sum_after_convergence = 0.0;
};
FlightVerdict judge_flight(const std::vector<PoseError>& errors);

}  // namespace perfbench
