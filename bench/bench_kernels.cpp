// Kernel-backend benchmark: observation-sweep throughput per KernelBackend
// (scalar reference vs the AVX2/NEON SIMD paths of src/core/kernels/) and
// per weight representation (fp32, fp32-compute/fp16-store, native fp16),
// plus the motion step per backend at 1024, 4096 and 16384 particles.
//
// Self-contained (no Google Benchmark): each sweep variant times repeated
// observation_update() calls over the evaluation grid, resetting the
// particle cloud between iterations OUTSIDE the timed region so weight
// underflow (and denormal arithmetic) cannot skew the numbers; each
// motion row times repeated motion_update() calls on one cloud.
// Iteration counts auto-calibrate to a minimum timed duration.
//
// The committed artifact is BENCH_kernels.json (--json). Threshold gates
// (exit code 1 on violation, so CI fails loudly instead of silently
// regressing):
//   * AVX2 plain-path sweep throughput >= 2.0x scalar (when AVX2 is
//     supported).
//   * AVX2 motion_update >= 2.0x scalar at 4096 particles — fails if the
//     motion step falls back to the scalar reference.
//   * Every SIMD variant >= 1.0x its scalar counterpart.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/particle_filter.hpp"
#include "map/rasterize.hpp"
#include "sim/maze.hpp"

using namespace tofmcl;
namespace kernels = tofmcl::core::kernels;

namespace {

struct Args {
  std::size_t particles = 4096;
  std::size_t beams = 16;
  double min_seconds = 0.4;  ///< Timed duration floor per variant.
  bool smoke = false;
  const char* json_path = nullptr;
};

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const auto is = [&](const char* flag) {
      return std::strcmp(argv[i], flag) == 0;
    };
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value after %s\n", argv[i]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (is("--help") || is("-h")) {
      std::printf(
          "bench_kernels — observation-sweep and motion throughput per "
          "kernel backend\n"
          "  --particles N   particles per filter (default 4096)\n"
          "  --beams N       beams per observation update (default 16)\n"
          "  --min-seconds S timed duration floor per variant (default 0.4)\n"
          "  --smoke         fast CI mode (fewer particles, shorter floor)\n"
          "  --json FILE     write the report as JSON (BENCH_kernels.json)\n"
          "  --help          this message\n");
      std::exit(0);
    } else if (is("--particles")) {
      args.particles = static_cast<std::size_t>(std::atoi(value()));
    } else if (is("--beams")) {
      args.beams = static_cast<std::size_t>(std::atoi(value()));
    } else if (is("--min-seconds")) {
      args.min_seconds = std::atof(value());
    } else if (is("--smoke")) {
      args.smoke = true;
      args.particles = 1024;
      args.min_seconds = 0.05;
    } else if (is("--json")) {
      args.json_path = value();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return args;
}

const map::OccupancyGrid& evaluation_grid() {
  static const map::OccupancyGrid grid = [] {
    return sim::rasterize_environment(sim::evaluation_environment(), 0.05,
                                      0.01);
  }();
  return grid;
}

std::vector<sensor::Beam> synthetic_beams(std::size_t count) {
  std::vector<sensor::Beam> beams(count);
  for (std::size_t i = 0; i < count; ++i) {
    const double az =
        -0.35 + 0.7 * static_cast<double>(i) / static_cast<double>(count);
    const double r = 0.8 + 0.05 * static_cast<double>(i % 7);
    beams[i].azimuth_body = az;
    beams[i].range_m = static_cast<float>(r);
    beams[i].endpoint_body = Vec2f{static_cast<float>(r * std::cos(az)),
                                   static_cast<float>(r * std::sin(az))};
  }
  return beams;
}

/// One measured configuration.
struct Entry {
  std::string variant;   ///< fp32qm / fp32qm_mixture / fp16qm.
  std::string weights;   ///< fp32 / fp16-store / fp16.
  std::string backend;   ///< scalar / avx2 / neon.
  double seconds = 0.0;
  std::size_t iterations = 0;
  double particles_beams_per_s = 0.0;
  double speedup_vs_scalar = 1.0;
};

double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

/// Times observation_update() on a fresh filter until `min_seconds` of
/// timed work accumulate. The cloud is re-initialized before every timed
/// call (outside the timer) so each update sees identical, well-scaled
/// weights.
template <typename Traits>
Entry run_variant(const Args& args, kernels::KernelBackend backend,
                  core::WeightPrecision wp, bool mixture) {
  const auto& grid = evaluation_grid();
  const typename Traits::Map dmap(grid, 1.5);
  core::MclConfig cfg;
  cfg.num_particles = args.particles;
  cfg.weight_precision = wp;
  if (mixture) {
    cfg.z_short = 0.4;
    cfg.lambda_short = 1.3;
  }
  core::SerialExecutor exec;
  core::ParticleFilter<Traits> pf(dmap, cfg, exec);
  pf.set_kernel_backend(backend);
  const auto beams = synthetic_beams(args.beams);
  const auto free_cells = grid.free_cell_centers();

  Entry e;
  e.backend = kernels::to_string(backend);
  // Calibrate the batch size on a short probe, then run timed batches
  // until the duration floor is met.
  std::size_t iters = 0;
  double timed = 0.0;
  while (timed < args.min_seconds || iters < 4) {
    pf.init_uniform(free_cells, 0.025);
    const double t0 = now_seconds();
    pf.observation_update(beams);
    timed += now_seconds() - t0;
    ++iters;
  }
  e.seconds = timed;
  e.iterations = iters;
  e.particles_beams_per_s = static_cast<double>(iters) *
                            static_cast<double>(args.particles) *
                            static_cast<double>(args.beams) / timed;
  return e;
}

/// One measured motion_update configuration.
struct MotionEntry {
  std::size_t particles = 0;
  std::string backend;
  double seconds = 0.0;
  std::size_t iterations = 0;
  double us_per_update = 0.0;
  double speedup_vs_scalar = 1.0;
};

/// Times motion_update() on one uniform cloud until `min_seconds` of
/// timed work accumulate. A gate-sized odometry delta keeps the noise at
/// its configured σ; yaws stay wrapped, so no iteration leaves the
/// kernel's fast path more than a real flight would.
MotionEntry run_motion(const Args& args, kernels::KernelBackend backend,
                       std::size_t particles) {
  const auto& grid = evaluation_grid();
  const map::QuantizedDistanceMap dmap(grid, 1.5);
  core::MclConfig cfg;
  cfg.num_particles = particles;
  core::SerialExecutor exec;
  core::ParticleFilter<core::Fp32QmTraits> pf(dmap, cfg, exec);
  pf.set_kernel_backend(backend);
  pf.init_uniform(grid.free_cell_centers(), 0.025);
  const Pose2 delta{0.08, 0.01, 0.03};

  MotionEntry e;
  e.particles = particles;
  e.backend = kernels::to_string(backend);
  std::size_t iters = 0;
  double timed = 0.0;
  while (timed < args.min_seconds || iters < 4) {
    const double t0 = now_seconds();
    pf.motion_update(delta);
    timed += now_seconds() - t0;
    ++iters;
  }
  e.seconds = timed;
  e.iterations = iters;
  e.us_per_update = timed / static_cast<double>(iters) * 1e6;
  return e;
}

void json_motion_entry(std::ofstream& os, const MotionEntry& e, bool last) {
  os << "    {\n"
     << "      \"particles\": " << e.particles << ",\n"
     << "      \"backend\": \"" << e.backend << "\",\n"
     << "      \"seconds\": " << e.seconds << ",\n"
     << "      \"iterations\": " << e.iterations << ",\n"
     << "      \"us_per_update\": " << e.us_per_update << ",\n"
     << "      \"speedup_vs_scalar\": " << e.speedup_vs_scalar << "\n"
     << "    }" << (last ? "\n" : ",\n");
}

void json_entry(std::ofstream& os, const Entry& e, bool last) {
  os << "    {\n"
     << "      \"variant\": \"" << e.variant << "\",\n"
     << "      \"weights\": \"" << e.weights << "\",\n"
     << "      \"backend\": \"" << e.backend << "\",\n"
     << "      \"seconds\": " << e.seconds << ",\n"
     << "      \"iterations\": " << e.iterations << ",\n"
     << "      \"particles_beams_per_s\": " << e.particles_beams_per_s
     << ",\n"
     << "      \"speedup_vs_scalar\": " << e.speedup_vs_scalar << "\n"
     << "    }" << (last ? "\n" : ",\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  std::vector<kernels::KernelBackend> backends{
      kernels::KernelBackend::kScalar};
  for (const auto b :
       {kernels::KernelBackend::kAvx2, kernels::KernelBackend::kNeon}) {
    if (kernels::backend_supported(b)) backends.push_back(b);
  }

  // Variant sweep. The scalar entry of each variant is the reference its
  // SIMD rows are normalized against.
  struct Variant {
    const char* name;
    const char* weights;
    core::WeightPrecision wp;
    bool mixture;
    bool fp16_traits;
  };
  const Variant variants[] = {
      {"fp32qm", "fp32", core::WeightPrecision::kNative, false, false},
      {"fp32qm_mixture", "fp32", core::WeightPrecision::kNative, true, false},
      {"fp32qm", "fp16-store", core::WeightPrecision::kFp16, false, false},
      {"fp16qm", "fp16", core::WeightPrecision::kNative, false, true},
  };

  std::vector<Entry> entries;
  double avx2_plain_speedup = 0.0;
  bool gates_pass = true;
  std::vector<std::string> gate_failures;

  for (const Variant& v : variants) {
    double scalar_rate = 0.0;
    for (const auto backend : backends) {
      Entry e = v.fp16_traits
                    ? run_variant<core::Fp16QmTraits>(args, backend, v.wp,
                                                      v.mixture)
                    : run_variant<core::Fp32QmTraits>(args, backend, v.wp,
                                                      v.mixture);
      e.variant = v.name;
      e.weights = v.weights;
      if (backend == kernels::KernelBackend::kScalar) {
        scalar_rate = e.particles_beams_per_s;
      } else {
        e.speedup_vs_scalar = e.particles_beams_per_s / scalar_rate;
        if (std::strcmp(v.name, "fp32qm") == 0 &&
            std::strcmp(v.weights, "fp32") == 0 &&
            backend == kernels::KernelBackend::kAvx2) {
          avx2_plain_speedup = e.speedup_vs_scalar;
        }
        if (e.speedup_vs_scalar < 1.0) {
          gates_pass = false;
          gate_failures.push_back(std::string(v.name) + "/" + v.weights +
                                  "/" + e.backend + " slower than scalar");
        }
      }
      std::printf("%-16s %-10s %-7s %12.3e particles*beams/s  (%5.2fx)\n",
                  v.name, v.weights, e.backend.c_str(),
                  e.particles_beams_per_s, e.speedup_vs_scalar);
      entries.push_back(std::move(e));
    }
  }

  // Motion rows: the same backends at three cloud sizes.
  constexpr std::size_t kMotionGateParticles = 4096;
  std::vector<MotionEntry> motion_entries;
  double avx2_motion_speedup = 0.0;
  for (const std::size_t n : {std::size_t{1024}, kMotionGateParticles,
                              std::size_t{16384}}) {
    double scalar_us = 0.0;
    for (const auto backend : backends) {
      // NEON has no motion kernel (it runs the scalar reference).
      if (backend == kernels::KernelBackend::kNeon) continue;
      MotionEntry e = run_motion(args, backend, n);
      if (backend == kernels::KernelBackend::kScalar) {
        scalar_us = e.us_per_update;
      } else {
        e.speedup_vs_scalar = scalar_us / e.us_per_update;
        if (n == kMotionGateParticles &&
            backend == kernels::KernelBackend::kAvx2) {
          avx2_motion_speedup = e.speedup_vs_scalar;
        }
        if (e.speedup_vs_scalar < 1.0) {
          gates_pass = false;
          gate_failures.push_back("motion/" + std::to_string(n) + "/" +
                                  e.backend + " slower than scalar");
        }
      }
      std::printf("%-16s %-10zu %-7s %12.1f us/update          (%5.2fx)\n",
                  "motion", n, e.backend.c_str(), e.us_per_update,
                  e.speedup_vs_scalar);
      motion_entries.push_back(std::move(e));
    }
  }

  constexpr double kAvx2MinSpeedup = 2.0;
  constexpr double kAvx2MotionMinSpeedup = 2.0;
  const bool avx2_supported =
      kernels::backend_supported(kernels::KernelBackend::kAvx2);
  if (avx2_supported && avx2_plain_speedup < kAvx2MinSpeedup) {
    gates_pass = false;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "avx2 fp32qm speedup %.2fx below the %.1fx gate",
                  avx2_plain_speedup, kAvx2MinSpeedup);
    gate_failures.emplace_back(buf);
  }
  if (avx2_supported && avx2_motion_speedup < kAvx2MotionMinSpeedup) {
    gates_pass = false;
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "avx2 motion speedup %.2fx at %zu particles below the "
                  "%.1fx gate",
                  avx2_motion_speedup, kMotionGateParticles,
                  kAvx2MotionMinSpeedup);
    gate_failures.emplace_back(buf);
  }

  for (const std::string& f : gate_failures) {
    std::fprintf(stderr, "GATE FAILED: %s\n", f.c_str());
  }
  if (gates_pass) std::printf("all gates passed\n");

  if (args.json_path != nullptr) {
    std::ofstream js(args.json_path);
    if (!js) {
      std::fprintf(stderr, "cannot open %s\n", args.json_path);
      return 2;
    }
    js << "{\n"
       << "  \"bench\": \"kernels\",\n"
       << "  \"smoke\": " << (args.smoke ? "true" : "false") << ",\n"
       << "  \"particles\": " << args.particles << ",\n"
       << "  \"beams\": " << args.beams << ",\n"
       << "  \"backends\": [";
    for (std::size_t i = 0; i < backends.size(); ++i) {
      js << (i ? ", " : "") << '"' << kernels::to_string(backends[i]) << '"';
    }
    js << "],\n  \"entries\": [\n";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      json_entry(js, entries[i], i + 1 == entries.size());
    }
    js << "  ],\n  \"motion\": [\n";
    for (std::size_t i = 0; i < motion_entries.size(); ++i) {
      json_motion_entry(js, motion_entries[i],
                        i + 1 == motion_entries.size());
    }
    js << "  ],\n"
       << "  \"gates\": {\n"
       << "    \"avx2_min_speedup\": " << kAvx2MinSpeedup << ",\n"
       << "    \"avx2_fp32qm_speedup\": " << avx2_plain_speedup << ",\n"
       << "    \"avx2_motion_min_speedup\": " << kAvx2MotionMinSpeedup
       << ",\n"
       << "    \"avx2_motion_speedup_4096\": " << avx2_motion_speedup
       << ",\n"
       << "    \"simd_not_slower_than_scalar\": true,\n"
       << "    \"pass\": " << (gates_pass ? "true" : "false") << "\n"
       << "  }\n"
       << "}\n";
    std::printf("wrote %s\n", args.json_path);
  }
  return gates_pass ? 0 : 1;
}
