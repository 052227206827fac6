#pragma once
/// \file workloads.hpp
/// \brief The four workloads. Each runs for `seconds` of measured work,
/// checks its outputs, and fills a WorkloadResult. With an enabled
/// tracer it also times every call it makes into a layer and reports the
/// per-layer metrics it owns.

#include "bench.hpp"

namespace perfbench {

/// One drone in the paper's large maze, global localization, closed-loop
/// replay of the six standard flights. `pooled`: 16384 particles on a
/// ThreadPoolExecutor (nproc−1 pool threads plus the caller) instead of
/// 4096 on the SerialExecutor.
WorkloadResult run_onboard(const Options& opt, bool pooled, double seconds,
                           Tracer& tracer);

/// Open-loop serving, pumped serially on the load generator, which stays
/// about a third busy: adaptive sessions with the beam-mixture model and
/// novelty gating on three generated worlds with crossing walkers; one
/// operator report() per scheduled second.
WorkloadResult run_serve_fleet(const Options& opt, double seconds,
                               Tracer& tracer);

/// Open-loop serving with churn: fixed 128-particle sessions flying short
/// bursts; each burst ends in an eviction and the next push restores.
WorkloadResult run_serve_churn(const Options& opt, double seconds,
                               Tracer& tracer);

}  // namespace perfbench
