// On-board workloads: one drone, global localization in the paper's large
// maze, closed-loop replay. Every flight is one boot (map build plus
// localizer start) followed by a replay of its inputs in time order, each
// input call returning before the next is made.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <thread>

#include "common/thread_pool.hpp"
#include "core/executor.hpp"
#include "core/localizer.hpp"
#include "flights.hpp"
#include "map/snapshot_io.hpp"
#include "replica.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Flights per standard plan in one round. The pooled round is halved so
/// that a 10 s run still holds several rounds.
constexpr std::size_t kFlightsPerPlan = 2;
constexpr std::size_t kPooledFlightsPerPlan = 1;
/// Rounds with flights of their own; later rounds replay them again in
/// turn. Fresh flights per round make a run's localized share an average
/// over independent flights rather than over one round's flights replayed.
constexpr std::size_t kFlightSets = 4;
/// Empty fork-join probes per flight (pooled traced run).
constexpr std::size_t kForkJoinProbes = 64;
/// Least share of a run's flights that must localize by the paper's
/// criterion, or the run fails its checks. About one flight in six misses
/// it today, and at most five of a round's twelve over seeds 1–60, so the
/// floor sits well below what any seed reaches. A smaller loss shows in
/// the localized_share metric.
constexpr double kLocalizedFloor = 1.0 / 3.0;

std::size_t pool_threads() {
  const std::size_t hw = std::max(2u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(3, hw - 1);
}

}  // namespace

WorkloadResult run_onboard(const Options& opt, bool pooled, double seconds,
                           Tracer& tracer) {
  WorkloadResult res;
  res.name = pooled ? "onboard_pooled" : "onboard_maze";
  const std::size_t particles = pooled ? 16384 : 4096;

  // ---- inputs (not timed) -------------------------------------------------
  const World world = large_maze_world();
  const std::size_t per_plan = pooled ? kPooledFlightsPerPlan : kFlightsPerPlan;
  std::vector<FlightSpec> specs;
  for (std::size_t set = 0; set < kFlightSets; ++set) {
    for (std::size_t plan = 0; plan < world.plans.size(); ++plan) {
      for (std::size_t k = 0; k < per_plan; ++k) {
        specs.push_back({&world, plan,
                         mix(mix(opt.seed, 0x0b0a4d), (set * 8 + k) * 16 + plan),
                         0});
      }
    }
  }
  const std::size_t per_round = world.plans.size() * per_plan;
  const std::int64_t g0 = now_ns();
  const std::vector<Flight> flights = generate_flights(specs, 4);
  res.notes.push_back(std::to_string(flights.size()) + " flights simulated in " +
                      std::to_string(static_cast<double>(now_ns() - g0) * 1e-9) +
                      " s (not timed)");

  core::LocalizerConfig base;
  base.precision = core::Precision::kFp32Qm;
  base.mcl.num_particles = particles;
  base.sensors = {world.generator.front_tof, world.generator.rear_tof};
  const core::Precision precision = base.precision;

  std::optional<ThreadPool> pool;
  std::optional<core::ThreadPoolExecutor> pool_exec;
  if (pooled) {
    pool.emplace(pool_threads());
    pool_exec.emplace(*pool);
  }
  core::SerialExecutor serial;
  core::Executor& exec = pooled ? static_cast<core::Executor&>(*pool_exec)
                                : static_cast<core::Executor&>(serial);

  const int span_build = tracer.name("map.build_resources");
  const int span_start = tracer.name("core.localizer_start");
  const int span_input = tracer.name("core.localizer_input");
  const int span_fork = tracer.name("common.fork_join");
  Tracer pooled_phases(tracer.enabled() && pooled);

  // ---- timed replay ---------------------------------------------------------
  std::vector<double> correction_us, input_us, boot_s;
  std::vector<double> replica_correction_us;  // traced: phase sum per correction
  double replay_wall_s = 0.0;
  double replay_cpu_s = 0.0;
  std::size_t corrections = 0;
  double ate_sum = 0.0;
  std::size_t ate_n = 0;
  std::size_t idle_bytes = 0;
  std::size_t trace_mismatches = 0;
  std::size_t localized = 0;

  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  std::size_t round = 0;
  do {
    for (std::size_t f = 0; f < per_round; ++f) {
      const Flight& flight = flights[(round % kFlightSets) * per_round + f];
      core::LocalizerConfig cfg = base;
      cfg.mcl.seed = mix(opt.seed, round * per_round + f + 1);

      // Boot: map build + localizer construction and start.
      const std::int64_t b0 = now_ns();
      std::shared_ptr<const core::MapResources> maps;
      {
        Tracer::Scope span(tracer, span_build);
        maps = core::build_map_resources(
            world.grid, cfg.mcl, std::span<const core::Precision>(&precision, 1));
      }
      std::optional<core::Localizer> loc;
      {
        Tracer::Scope span(tracer, span_start);
        loc.emplace(maps, cfg, exec);
        loc->start_global();
      }
      boot_s.push_back(static_cast<double>(now_ns() - b0) * 1e-9);

      // Traced: the lockstep replica on the serial executor (the phases
      // of Table I, and the serial side of the pooled speedup); pooled,
      // a second replica on the pool times the phases fork-joined.
      std::optional<Replica> replica, pooled_replica;
      if (tracer.enabled()) {
        replica.emplace(*maps, cfg, serial, tracer);
        replica->start_global();
        if (pooled) {
          pooled_replica.emplace(*maps, cfg, exec, pooled_phases);
          pooled_replica->start_global();
        }
      }

      std::vector<PoseError> errors;
      std::size_t flight_corrections = 0;
      const double cpu0 = pooled ? process_cpu_s() : thread_cpu_s();
      double flight_wall = 0.0;
      for (const serve::SessionInput& in : flight.inputs) {
        bool corrected = false;
        std::int64_t t0 = 0, t1 = 0;
        {
          Tracer::Scope span(tracer, span_input);
          t0 = now_ns();
          loc->on_odometry(in.odometry);
          corrected = loc->on_frames(in.frames);
          t1 = now_ns();
        }
        flight_wall += static_cast<double>(t1 - t0) * 1e-9;
        input_us.push_back(ns_to_us(t1 - t0));
        if (corrected) {
          correction_us.push_back(ns_to_us(t1 - t0));
          ++flight_corrections;
          if (loc->estimate().valid) {
            errors.push_back(pose_error(flight, in.t, loc->estimate().pose));
          }
        }
        if (replica) {
          const std::int64_t r0 = now_ns();
          replica->on_odometry(in.odometry);
          const bool rc = replica->on_frames(in.frames);
          const std::int64_t r1 = now_ns();
          if (rc != corrected ||
              (rc && !same_bits(replica->filter().estimate().pose,
                                loc->estimate().pose))) {
            ++trace_mismatches;
          }
          if (rc) replica_correction_us.push_back(ns_to_us(r1 - r0));
        }
        if (pooled_replica) {
          pooled_replica->on_odometry(in.odometry);
          const bool pc = pooled_replica->on_frames(in.frames);
          if (pc != corrected ||
              (pc && !same_bits(pooled_replica->filter().estimate().pose,
                                loc->estimate().pose))) {
            ++trace_mismatches;
          }
        }
      }
      replay_cpu_s += (pooled ? process_cpu_s() : thread_cpu_s()) - cpu0;
      replay_wall_s += flight_wall;
      corrections += flight_corrections;

      if (pooled && tracer.enabled()) {
        for (std::size_t i = 0; i < kForkJoinProbes; ++i) {
          Tracer::Scope span(tracer, span_fork);
          exec.for_chunks(particles, cfg.mcl.chunks,
                          [](std::size_t, std::size_t, std::size_t) {});
        }
      }

      // Output checks made apart from the program.
      const std::size_t expected = gate_openings(flight.inputs, cfg.mcl);
      res.check(flight_corrections == expected && loc->updates_run() == expected,
                flight.name + ": " + std::to_string(flight_corrections) +
                    " corrections, gate recomputed from odometry opens " +
                    std::to_string(expected));
      res.check(loc->dropped_frames() == 0, flight.name + ": frames dropped");
      // Whether a flight localizes by the paper's criterion depends on the
      // seed, so a miss is not a failed operation: it lowers the
      // localized_share metric and is checked against kLocalizedFloor
      // below (see README.md).
      const FlightVerdict verdict = judge_flight(errors);
      ++res.attempted;
      if (verdict.success) {
        ++localized;
        ate_sum += verdict.error_sum_after_convergence;
        ate_n += verdict.samples_after_convergence;
      }

      map::SnapshotWriter blob;
      loc->save_snapshot(blob);
      idle_bytes = loc->resident_particle_bytes() + blob.size();
    }
    ++round;
  } while (now_ns() < deadline);

  res.check(trace_mismatches == 0,
            std::to_string(trace_mismatches) +
                " lockstep replica steps differ from the Localizer");
  res.check(corrections > 0, "no corrections ran");
  const double localized_share =
      static_cast<double>(localized) / static_cast<double>(res.attempted);
  res.check(localized_share >= kLocalizedFloor,
            "only " + std::to_string(localized) + " of " +
                std::to_string(res.attempted) +
                " flights localized by the paper's criterion");

  // ---- end-to-end metrics --------------------------------------------------
  std::vector<double> corr = correction_us, inp = input_us;
  // One boot takes about a millisecond, so the run's boots are timed as
  // one figure: their total per round of flights.
  double boot_total_s = 0.0;
  for (const double b : boot_s) boot_total_s += b;
  res.e2e("setup_s", boot_total_s / static_cast<double>(round), "s");
  res.e2e("correction_us_p50", quantile(corr, 0.50), "us");
  res.e2e("correction_us_p95",
          segmented_quantile(slices(correction_us, kTailSlices), kTailQuantile),
          "us");
  res.e2e("input_latency_us_p50", quantile(inp, 0.50), "us");
  res.e2e("cpu_us_per_correction",
          replay_cpu_s * 1e6 / static_cast<double>(std::max<std::size_t>(1, corrections)),
          "us");
  res.e2e("corrections_per_s",
          static_cast<double>(corrections) / std::max(1e-9, replay_wall_s), "1/s");
  res.e2e("ate_m", ate_n > 0 ? ate_sum / static_cast<double>(ate_n) : 0.0, "m");
  res.e2e("localized_share", localized_share, "ratio");
  res.e2e("idle_bytes_per_session", static_cast<double>(idle_bytes), "B");
  res.e2e("peak_rss_mb", peak_rss_mib(), "MiB");

  {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "localized by the paper's criterion: %zu of %zu flights "
                  "(%.3f); ate_m %.4f m over the localized ones",
                  localized, res.attempted, localized_share,
                  ate_n > 0 ? ate_sum / static_cast<double>(ate_n) : 0.0);
    res.notes.push_back(buf);
  }
  res.notes.push_back(std::to_string(boot_s.size()) + " boots: " +
                      std::to_string(boot_total_s) + " s in all, median " +
                      std::to_string(median(boot_s) * 1e3) + " ms");
  res.notes.push_back(std::to_string(round) + " rounds of " +
                      std::to_string(per_round) + " flights, " +
                      std::to_string(corrections) + " corrections, " +
                      std::to_string(input_us.size()) + " input calls");

  // ---- per-layer metrics ----------------------------------------------------
  if (tracer.enabled()) {
    const double prod_p50 = median(correction_us);
    const double replica_p50 = median(replica_correction_us);
    if (!pooled) {
      res.layer("sensor.extract_us_p50", median(tracer.durations("sensor.extract")) * 1e6, "us");
      res.layer("core.motion_observation_us_p50",
                median(tracer.durations("core.motion_observation")) * 1e6, "us");
      res.layer("core.resample_us_p50", median(tracer.durations("core.resample")) * 1e6, "us");
      res.layer("core.pose_us_p50", median(tracer.durations("core.pose")) * 1e6, "us");
      res.layer("core.motion_only_us_p50", median(tracer.durations("core.motion_only")) * 1e6, "us");
      res.layer("core.phase_coverage", replica_p50 / std::max(1e-9, prod_p50), "ratio");
      res.layer("core.localizer_start_us_p50",
                median(tracer.durations("core.localizer_start")) * 1e6, "us");
      res.layer("map.build_resources_ms",
                median(tracer.durations("map.build_resources")) * 1e3, "ms");
    } else {
      res.layer("common.fork_join_overhead_us_p50",
                median(tracer.durations("common.fork_join")) * 1e6, "us");
      res.layer("common.fork_join_speedup", replica_p50 / std::max(1e-9, prod_p50),
                "ratio");
    }
    res.notes.push_back("traced: production correction p50 " + std::to_string(prod_p50) +
                        " us, lockstep serial replica phase sum p50 " +
                        std::to_string(replica_p50) + " us");
    // Host Table I: per-phase p50 at this workload's particle count.
    const auto table = [&](const Tracer& t, const char* label) {
      std::string row = std::string("Table I ") + label + " p50 us:";
      for (const char* phase : {"sensor.extract", "core.motion_observation",
                                "core.resample", "core.pose", "core.adapt",
                                "core.motion_only"}) {
        char buf[96];
        std::snprintf(buf, sizeof buf, " %s %.1f", phase,
                      median(t.durations(phase)) * 1e6);
        row += buf;
      }
      res.notes.push_back(row);
    };
    table(tracer, pooled ? "16384 serial" : "4096 serial");
    if (pooled) table(pooled_phases, "16384 pooled");
  }
  return res;
}

}  // namespace perfbench
