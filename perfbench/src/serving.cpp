// Serving workloads: open-loop load against serve::SessionManager.
//
// Every session pushes its flight's inputs on a fixed schedule (15 Hz,
// per-session phase offsets drawn from the seed). One load-generator
// thread wakes on a fixed 10 ms tick, pushes every input that has fallen
// due, then calls pump(): serve_fleet pumps serially on that thread,
// serve_churn on a pool whose tasks the pump's wait helps run. An input's
// latency runs from the later of its due time and the tick that should
// have admitted it to the return of the pump() that processed it: the wait
// for the tick itself is the load generator's, not the program's, and is
// reported apart as the admission wait, while a pump that overruns its
// tick is charged to every input that waited behind it.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>

#include "core/localizer.hpp"
#include "flights.hpp"
#include "replica.hpp"
#include "serve/session_manager.hpp"
#include "serve/snapshot_store.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

constexpr double kInputHz = 15.0;
/// Period of the load generator's pump ticks: keeps the generator a third
/// (serve_fleet) to a half (serve_churn) busy (see README.md).
constexpr std::int64_t kTickNs = 10000000;
constexpr std::size_t kSetupRepeats = 31;
/// Tour, reverse tour and shuttle of each generated world.
constexpr std::size_t kPlansPerWorld = 3;
constexpr std::size_t kFlightsPerPlan = 24;
/// Sessions whose correction traces are replayed standalone and compared.
constexpr std::size_t kSampleSessions = 6;

/// Pool threads of a pooled workload: two (one on a 3-vCPU host), so that
/// with the load generator one vCPU stays free for everything else on the
/// host.
std::size_t pool_threads() {
  const std::size_t hw = std::max(3u, std::thread::hardware_concurrency());
  return std::min<std::size_t>(2, hw - 2);
}

/// SnapshotStore decorator: forwards to an InMemorySnapshotStore, times
/// put and take, and records every blob's size, so the store layer is
/// measured from outside the program.
class TimingStore final : public serve::SnapshotStore {
 public:
  explicit TimingStore(Tracer& tracer)
      : inner_(std::make_shared<serve::InMemorySnapshotStore>()),
        tracer_(&tracer),
        span_put_(tracer.name("serve.store_put")),
        span_take_(tracer.name("serve.store_take")) {}

  void put(std::uint64_t id, std::vector<std::byte> blob) override {
    const std::size_t size = blob.size();
    const std::int64_t t0 = now_ns();
    {
      Tracer::Scope span(*tracer_, span_put_);
      inner_->put(id, std::move(blob));
    }
    const std::int64_t t1 = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    ++puts_;
    put_us_.push_back(ns_to_us(t1 - t0));
    blob_sizes_.push_back(static_cast<double>(size));
    auto& parked = parked_[id];
    parked_bytes_ = parked_bytes_ - parked + size;
    parked = size;
  }

  std::optional<std::vector<std::byte>> take(std::uint64_t id) override {
    const std::int64_t t0 = now_ns();
    std::optional<std::vector<std::byte>> blob;
    {
      Tracer::Scope span(*tracer_, span_take_);
      blob = inner_->take(id);
    }
    const std::int64_t t1 = now_ns();
    std::lock_guard<std::mutex> lock(mutex_);
    if (blob) {
      ++takes_;
      take_us_.push_back(ns_to_us(t1 - t0));
      parked_bytes_ -= parked_[id];
      parked_.erase(id);
    }
    return blob;
  }

  std::size_t count() const override { return inner_->count(); }
  std::size_t bytes() const override { return inner_->bytes(); }

  struct Stats {
    std::size_t puts = 0, takes = 0, parked_bytes = 0;
    std::vector<double> put_us, take_us, blob_sizes;
  };
  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return {puts_, takes_, parked_bytes_, put_us_, take_us_, blob_sizes_};
  }

 private:
  std::shared_ptr<serve::InMemorySnapshotStore> inner_;
  Tracer* tracer_;
  int span_put_, span_take_;
  mutable std::mutex mutex_;
  std::size_t puts_ = 0, takes_ = 0, parked_bytes_ = 0;
  std::map<std::uint64_t, std::size_t> parked_;
  std::vector<double> put_us_, take_us_, blob_sizes_;
};

/// How a workload's sessions are configured and scheduled.
struct FleetSpec {
  std::size_t sessions = 0;
  std::size_t particles = 0;
  bool adaptive = false;  ///< KLD counts with a floor of 128 particles.
  bool mixture = false;  ///< Beam-mixture model with novelty gating.
  std::size_t walkers = 0;
  /// Churn: inputs per burst and parked gap between bursts; 0 = one
  /// continuous stream, never evicted.
  std::size_t burst_inputs = 0;
  double gap_s = 0.0;
  /// An operator report() scrape once per scheduled second.
  bool operator_scrape = false;
  /// Pump on a pool of pool_threads() plus the load generator; otherwise
  /// the load generator pumps serially.
  bool pooled = false;
};

struct ScheduledInput {
  std::int64_t due_ns = 0;  ///< Relative to schedule start.
  std::uint32_t session = 0;
  std::uint32_t index = 0;  ///< Into the session's flight inputs.
  bool burst_start = false;
  bool burst_end = false;
};

struct SessionPlan {
  std::size_t flight = 0;
  std::uint64_t seed = 0;
  std::size_t inputs = 0;  ///< Inputs scheduled (a prefix of the flight).
  std::size_t bursts = 0;
};

/// The three generated worlds with their flights: every plan of each
/// world flown with kFlightsPerPlan data seeds.
struct Inputs {
  std::vector<World> worlds;
  std::vector<Flight> flights;
};

Inputs make_inputs(const Options& opt, std::size_t walkers, double seconds) {
  Inputs in;
  in.worlds.reserve(3);
  in.worlds.push_back(
      generated_world(sim::GeneratedWorldKind::kOffice, 3, "office"));
  in.worlds.push_back(
      generated_world(sim::GeneratedWorldKind::kWarehouse, 2, "warehouse"));
  in.worlds.push_back(generated_world(sim::GeneratedWorldKind::kLoopCorridor,
                                      1, "loop_corridor"));
  // A session flies at most `seconds` of its flight, so the simulation
  // stops there (the generator's timeout ends the flight early).
  for (World& w : in.worlds) w.generator.timeout_s = seconds + 1.0;
  std::vector<FlightSpec> specs;
  for (std::size_t w = 0; w < in.worlds.size(); ++w) {
    for (std::size_t plan = 0; plan < kPlansPerWorld; ++plan) {
      for (std::size_t k = 0; k < kFlightsPerPlan; ++k) {
        specs.push_back({&in.worlds[w], plan,
                         mix(mix(opt.seed, 0x5e7e + w), plan * 16 + k),
                         walkers});
      }
    }
  }
  in.flights = generate_flights(specs, 4);
  return in;
}

serve::SessionOptions session_options(const FleetSpec& spec,
                                      const Flight& flight,
                                      std::uint64_t seed) {
  serve::SessionOptions opts;
  opts.config.precision = core::Precision::kFp32Qm;
  opts.config.mcl.num_particles = spec.particles;
  opts.config.mcl.seed = seed;
  opts.config.mcl.adaptive_particles = spec.adaptive;
  opts.config.mcl.min_particles = 128;
  if (spec.mixture) {
    opts.config.mcl.z_short = 0.5;
    opts.config.mcl.enable_novelty_gating = true;
  }
  opts.config.sensors = {flight.world->generator.front_tof,
                         flight.world->generator.rear_tof};
  // Deep enough that no schedule stall on this host reaches it; a drop
  // is an output-check failure.
  opts.queue_capacity = 256;
  opts.start = serve::StartPose{flight.start_truth, 0.2, 0.2};
  return opts;
}

/// Session plans and the merged, due-ordered schedule.
void make_schedule(const Options& opt, const FleetSpec& spec,
                   const Inputs& in, double seconds,
                   std::vector<SessionPlan>& plans,
                   std::vector<ScheduledInput>& schedule) {
  const double period = 1.0 / kInputHz;
  const double horizon = seconds;
  plans.resize(spec.sessions);
  schedule.clear();
  for (std::size_t s = 0; s < spec.sessions; ++s) {
    SessionPlan& p = plans[s];
    p.flight = s % in.flights.size();
    p.seed = mix(opt.seed, 0x5e55 + s);
    const std::size_t available = in.flights[p.flight].inputs.size();
    // Phase offset in [0, 1) of the first slot, from the seed.
    const double phase =
        static_cast<double>(mix(p.seed, 7) >> 11) * 0x1.0p-53;
    const auto push_input = [&](double due, std::size_t index, bool first,
                                bool last) {
      schedule.push_back({static_cast<std::int64_t>(due * 1e9),
                          static_cast<std::uint32_t>(s),
                          static_cast<std::uint32_t>(index), first, last});
    };
    if (spec.burst_inputs == 0) {
      const double t0 = phase * period;
      for (std::size_t k = 0; k < available; ++k) {
        const double due = t0 + static_cast<double>(k) * period;
        if (due >= horizon) break;
        push_input(due, k, false, false);
        ++p.inputs;
      }
      p.bursts = 1;
    } else {
      const double burst_len = static_cast<double>(spec.burst_inputs) * period;
      const double cycle = burst_len + spec.gap_s;
      double start = phase * cycle;
      while (true) {
        const double last_due =
            start + static_cast<double>(spec.burst_inputs - 1) * period;
        if (last_due >= horizon ||
            p.inputs + spec.burst_inputs > available) {
          break;
        }
        for (std::size_t k = 0; k < spec.burst_inputs; ++k) {
          push_input(start + static_cast<double>(k) * period, p.inputs + k,
                     k == 0, k + 1 == spec.burst_inputs);
        }
        p.inputs += spec.burst_inputs;
        ++p.bursts;
        start += cycle;
      }
    }
  }
  std::stable_sort(schedule.begin(), schedule.end(),
                   [](const ScheduledInput& a, const ScheduledInput& b) {
                     return a.due_ns < b.due_ns;
                   });
}

struct Built {
  std::shared_ptr<TimingStore> store;
  std::unique_ptr<serve::SessionManager> mgr;
  std::vector<std::shared_ptr<const core::ScoringContext>> contexts;
};

/// One set-up: map resources from the occupancy grids, the manager, map
/// definitions and every session opened and started. Returns the wall
/// seconds it took.
double build_service(const FleetSpec& spec, const Inputs& in,
                     const std::vector<SessionPlan>& plans, Tracer& tracer,
                     Built& out) {
  const int span_build = tracer.name("map.build_resources");
  const int span_ctx = tracer.name("core.build_context");
  const int span_open = tracer.name("serve.open_session");
  const std::int64_t t0 = now_ns();
  serve::ServeOptions so;
  so.threads = spec.pooled ? pool_threads() : 0;
  out.store = std::make_shared<TimingStore>(tracer);
  so.store = out.store;
  out.mgr = std::make_unique<serve::SessionManager>(so);
  const core::Precision precision = core::Precision::kFp32Qm;
  const serve::SessionOptions any =
      session_options(spec, in.flights.front(), 1);
  for (const World& w : in.worlds) {
    std::shared_ptr<const core::MapResources> maps;
    {
      Tracer::Scope span(tracer, span_build);
      maps = core::build_map_resources(
          w.grid, any.config.mcl,
          std::span<const core::Precision>(&precision, 1));
    }
    out.mgr->define_map(w.key, maps);
  }
  for (std::size_t s = 0; s < plans.size(); ++s) {
    const Flight& f = in.flights[plans[s].flight];
    Tracer::Scope span(tracer, span_open);
    out.mgr->open_session(f.world->key,
                          session_options(spec, f, plans[s].seed));
  }
  const std::int64_t t2 = now_ns();
  // One shared context per map, kept reachable after eviction. Traced,
  // each map's context build is also timed apart: the catalog builds it
  // inside the map's first open_session.
  out.contexts.clear();
  std::vector<const World*> seen;
  for (std::size_t s = 0; s < plans.size() && seen.size() < in.worlds.size();
       ++s) {
    const Flight& f = in.flights[plans[s].flight];
    if (std::find(seen.begin(), seen.end(), f.world) != seen.end()) continue;
    seen.push_back(f.world);
    const auto& ctx = out.mgr->session(s).localizer().context();
    out.contexts.push_back(ctx);
    if (tracer.enabled()) {
      const serve::SessionOptions o = session_options(spec, f, 1);
      Tracer::Scope span(tracer, span_ctx);
      core::build_scoring_context(ctx->map_resources(), o.config);
    }
  }
  return static_cast<double>(t2 - t0) * 1e-9;
}

/// Standalone replay of one session's inputs on a core::Localizer built
/// from the session's shared context (and, traced, a lockstep Replica):
/// whether the session's trace is bit-identical, and the replica's
/// per-correction work.
struct SampleOutcome {
  bool identical = true;
  bool replica_identical = true;
  std::vector<double> particle_beams;
  std::vector<double> active_particles;
};

SampleOutcome replay_sample(const serve::Session& session,
                            const serve::SessionOptions& opts,
                            const Flight& flight, std::size_t inputs,
                            Tracer& tracer) {
  SampleOutcome out;
  const std::shared_ptr<const core::ScoringContext>& ctx =
      session.localizer().context();
  core::SessionKnobs knobs;
  knobs.seed = opts.config.mcl.seed;
  knobs.num_particles = opts.config.mcl.num_particles;
  core::SerialExecutor exec;
  core::Localizer loc(ctx, knobs, exec);
  loc.start_at(opts.start->pose, opts.start->sigma_xy, opts.start->sigma_yaw);
  std::optional<Replica> replica;
  if (tracer.enabled()) {
    core::LocalizerConfig cfg = ctx->config();
    cfg.mcl.seed = knobs.seed;
    cfg.mcl.num_particles = *knobs.num_particles;
    replica.emplace(ctx->maps(), cfg, exec, tracer);
    replica->start_at(opts.start->pose, opts.start->sigma_xy,
                      opts.start->sigma_yaw);
  }
  const std::vector<serve::CorrectionRecord>& trace = session.trace();
  std::size_t k = 0;
  for (std::size_t i = 0; i < inputs; ++i) {
    const serve::SessionInput& in = flight.inputs[i];
    loc.on_odometry(in.odometry);
    const bool corrected = !in.frames.empty() && loc.on_frames(in.frames);
    if (corrected) {
      if (k >= trace.size() || trace[k].t != in.t ||
          !same_bits(trace[k].pose, loc.estimate().pose)) {
        out.identical = false;
      }
      ++k;
    }
    if (replica) {
      replica->on_odometry(in.odometry);
      const bool rc = replica->on_frames(in.frames);
      if (rc != corrected ||
          (rc && !same_bits(replica->filter().estimate().pose,
                            loc.estimate().pose))) {
        out.replica_identical = false;
      }
      if (rc) {
        const core::UpdateWorkload& w = replica->filter().workload();
        out.particle_beams.push_back(
            static_cast<double>(w.particles * (w.beams - w.gated_beams)));
        out.active_particles.push_back(static_cast<double>(w.particles));
      }
    }
  }
  if (k != trace.size()) out.identical = false;
  return out;
}

WorkloadResult run_serving(const Options& opt, const FleetSpec& spec,
                           const std::string& name, double seconds,
                           Tracer& tracer) {
  WorkloadResult res;
  res.name = name;
  const bool churn = spec.burst_inputs > 0;

  // ---- inputs and schedule (not timed) -------------------------------------
  const std::int64_t g0 = now_ns();
  const Inputs in = make_inputs(opt, spec.walkers, seconds);
  res.notes.push_back(std::to_string(in.flights.size()) +
                      " flights simulated in " +
                      std::to_string(static_cast<double>(now_ns() - g0) * 1e-9) +
                      " s (not timed)");
  std::vector<SessionPlan> plans;
  std::vector<ScheduledInput> schedule;
  make_schedule(opt, spec, in, seconds, plans, schedule);

  // ---- set-up, repeated; the last one serves ---------------------------------
  // setup_s is the median of these, so it is a warm set-up: the first,
  // cold one (fresh pages, empty allocator) takes longer and is printed in
  // the notes.
  std::vector<double> setup_s;
  Built built;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    built = Built{};
    double s = build_service(spec, in, plans, tracer, built);
    if (r + 1 < kSetupRepeats) {
      // A discarded set-up ends with its first accepted input; the serving
      // one adds its first push below.
      const ScheduledInput& first = schedule.front();
      const std::int64_t p0 = now_ns();
      built.mgr->push(first.session,
                      in.flights[plans[first.session].flight].inputs[first.index]);
      s += static_cast<double>(now_ns() - p0) * 1e-9;
    }
    setup_s.push_back(s);
  }
  serve::SessionManager& mgr = *built.mgr;
  {
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%zu set-ups: first (cold) %.4f s, median %.4f s, "
                  "min %.4f s, max %.4f s",
                  setup_s.size(), setup_s.front(), median(setup_s),
                  *std::min_element(setup_s.begin(), setup_s.end()),
                  *std::max_element(setup_s.begin(), setup_s.end()));
    res.notes.push_back(buf);
  }

  // ---- open-loop run ------------------------------------------------------------
  const int span_push = tracer.name("serve.push");
  const int span_restore_push = tracer.name("serve.restore_push");
  const int span_pump = tracer.name("serve.pump");
  const int span_idle_pump = tracer.name("serve.idle_pump");
  const int span_report = tracer.name("serve.report");
  const int span_evict = tracer.name("serve.evict");

  std::vector<double> input_latency_us, admission_wait_us, pump_ms;
  std::vector<double> push_us, restore_push_us, evict_us, report_ms,
      idle_pump_us;
  input_latency_us.reserve(schedule.size());
  admission_wait_us.reserve(schedule.size());
  std::vector<std::int64_t> pending_from;  // latency start of each pushed input
  std::vector<std::uint32_t> to_evict;
  double pump_wall_s = 0.0, pump_cpu_s = 0.0, loop_busy_s = 0.0;
  std::size_t corrections = 0, evictions = 0, restores = 0;
  const std::size_t threads = (spec.pooled ? pool_threads() : 0) + 1;

  const std::int64_t start = now_ns() + 1000000;  // 1 ms lead
  std::int64_t next_report = start + 1000000000LL;
  const double cpu_start = process_cpu_s();
  // One pump of everything pushed so far; each input's latency ends at
  // the pump's return.
  const auto pump_pending = [&] {
    if (pending_from.empty()) return;
    const std::int64_t q0 = now_ns();
    const double c0 = process_cpu_s();
    {
      Tracer::Scope span(tracer, span_pump);
      corrections += mgr.pump();
    }
    const std::int64_t q1 = now_ns();
    pump_cpu_s += process_cpu_s() - c0;
    pump_wall_s += static_cast<double>(q1 - q0) * 1e-9;
    pump_ms.push_back(static_cast<double>(q1 - q0) * 1e-6);
    for (const std::int64_t from : pending_from) {
      input_latency_us.push_back(ns_to_us(q1 - from));
    }
    pending_from.clear();
  };
  std::size_t i = 0;
  bool first_push = true;
  // Pump ticks on a fixed grid: each tick pushes every input that has
  // fallen due and pumps once; a tick that overruns the next one starts
  // it at once. With nothing due the loop sleeps to the first tick at or
  // after the next due input.
  std::int64_t next_tick = start;
  while (i < schedule.size()) {
    const std::int64_t due0 = start + schedule[i].due_ns;
    if (due0 > next_tick) {
      next_tick = start + (due0 - start + kTickNs - 1) / kTickNs * kTickNs;
    }
    if (next_tick > now_ns()) sleep_until_ns(next_tick);
    const std::int64_t tick = next_tick;
    next_tick += kTickNs;
    const std::int64_t now = now_ns();
    const std::int64_t busy0 = now;
    while (i < schedule.size() && start + schedule[i].due_ns <= now) {
      const ScheduledInput& ev = schedule[i];
      const std::int64_t due = start + ev.due_ns;
      const bool restoring = churn && ev.burst_start &&
                             ev.index >= spec.burst_inputs;
      const std::int64_t p0 = now_ns();
      {
        Tracer::Scope span(tracer, restoring ? span_restore_push : span_push);
        mgr.push(ev.session,
                 in.flights[plans[ev.session].flight].inputs[ev.index]);
      }
      const std::int64_t p1 = now_ns();
      if (first_push) {
        // The serving set-up ends with its first accepted input.
        setup_s.back() += static_cast<double>(p1 - p0) * 1e-9;
        first_push = false;
      }
      (restoring ? restore_push_us : push_us).push_back(ns_to_us(p1 - p0));
      restores += restoring;
      admission_wait_us.push_back(ns_to_us(p0 - due));
      pending_from.push_back(std::max(due, tick));
      if (ev.burst_end && churn) to_evict.push_back(ev.session);
      ++i;
    }
    if (now_ns() >= next_report) {
      next_report += 1000000000LL;
      if (spec.operator_scrape) {
        // The operator's scrape, once per scheduled second.
        const std::int64_t r0 = now_ns();
        {
          Tracer::Scope span(tracer, span_report);
          const serve::ServeReport rep = mgr.report();
          (void)rep;
        }
        report_ms.push_back(static_cast<double>(now_ns() - r0) * 1e-6);
      }
      // A pump with nothing pending: the per-slot scan alone. Pump first
      // so the probe really finds nothing queued.
      pump_pending();
      const std::int64_t z0 = now_ns();
      {
        Tracer::Scope span(tracer, span_idle_pump);
        mgr.pump();
      }
      idle_pump_us.push_back(ns_to_us(now_ns() - z0));
    }
    pump_pending();
    for (const std::uint32_t s : to_evict) {
      const std::int64_t e0 = now_ns();
      {
        Tracer::Scope span(tracer, span_evict);
        mgr.evict_session(s);
      }
      evict_us.push_back(ns_to_us(now_ns() - e0));
      ++evictions;
    }
    to_evict.clear();
    loop_busy_s += static_cast<double>(now_ns() - busy0) * 1e-9;
  }
  const double cpu_total_s = process_cpu_s() - cpu_start;
  const double run_wall_s = static_cast<double>(now_ns() - start) * 1e-9;
  const TimingStore::Stats store = built.store->stats();
  const serve::ServeReport rep = mgr.report();

  // ---- output checks made apart from the program ------------------------------
  std::size_t expected_corrections = 0, expected_evictions = 0,
              expected_restores = 0, churned_sessions = 0;
  for (const SessionPlan& p : plans) {
    expected_corrections += gate_openings(
        std::span<const serve::SessionInput>(in.flights[p.flight].inputs.data(),
                                             p.inputs),
        core::MclConfig{});
    // In a run shorter than one burst cycle a session may fly no burst; it
    // is never evicted.
    if (churn && p.bursts > 0) {
      expected_evictions += p.bursts;
      expected_restores += p.bursts - 1;
      ++churned_sessions;
    }
  }
  res.attempted = schedule.size();
  res.check(rep.processed_inputs == schedule.size(),
            "processed " + std::to_string(rep.processed_inputs) + " of " +
                std::to_string(schedule.size()) + " pushed inputs");
  res.check(rep.dropped_inputs == 0,
            std::to_string(rep.dropped_inputs) + " inputs dropped");
  res.check(rep.corrections == expected_corrections && corrections == expected_corrections,
            std::to_string(rep.corrections) +
                " corrections, gate recomputed from odometry opens " +
                std::to_string(expected_corrections));
  res.check(evictions == expected_evictions && store.puts == expected_evictions,
            std::to_string(store.puts) + " snapshot puts, schedule implies " +
                std::to_string(expected_evictions) + " evictions");
  res.check(restores == expected_restores && store.takes == expected_restores,
            std::to_string(store.takes) + " snapshot takes, schedule implies " +
                std::to_string(expected_restores) + " restores");
  res.check(rep.stashed_snapshot_bytes == store.parked_bytes &&
                built.store->bytes() == store.parked_bytes,
            "parked bytes " + std::to_string(rep.stashed_snapshot_bytes) +
                " != blob sizes seen by the store decorator " +
                std::to_string(store.parked_bytes));
  res.check(rep.evicted_sessions == churned_sessions,
            std::to_string(rep.evicted_sessions) + " sessions evicted at the end");

  // ATE over every correction of every session, against ground truth; and
  // standalone replays of a sample of sessions.
  double err_sum = 0.0;
  std::size_t err_n = 0;
  std::vector<double> particle_beams, active_particles;
  std::size_t sample_mismatch = 0, replica_mismatch = 0, localized = 0;
  std::vector<std::vector<double>> correction_slices(kTailSlices);
  const std::size_t stride = std::max<std::size_t>(1, spec.sessions / kSampleSessions);
  for (std::size_t s = 0; s < spec.sessions; ++s) {
    const bool sampled = s % stride == 0;
    if (churn && plans[s].bursts > 0) {
      // Bring the evicted session back to read its trace.
      std::optional<std::vector<std::byte>> blob = built.store->take(s);
      if (!blob) {
        res.check(false, "session " + std::to_string(s) + " has no parked blob");
        continue;
      }
      mgr.restore_session(s, *blob);
    }
    const serve::Session& session = mgr.session(s);
    const Flight& flight = in.flights[plans[s].flight];
    // A session's corrections progress evenly through the run, so its
    // k-th slice of samples falls in the run's k-th slice of time.
    const std::vector<std::vector<double>> own =
        slices(session.latency().samples(), kTailSlices);
    for (std::size_t k = 0; k < kTailSlices; ++k) {
      correction_slices[k].insert(correction_slices[k].end(), own[k].begin(),
                                  own[k].end());
    }
    std::vector<PoseError> errors;
    errors.reserve(session.trace().size());
    for (const serve::CorrectionRecord& rec : session.trace()) {
      errors.push_back(pose_error(flight, rec.t, rec.pose));
      err_sum += errors.back().pos_m;
      ++err_n;
    }
    localized += judge_flight(errors).success;
    if (sampled) {
      const SampleOutcome o = replay_sample(
          session, session_options(spec, flight, plans[s].seed), flight,
          plans[s].inputs, tracer);
      sample_mismatch += !o.identical;
      replica_mismatch += !o.replica_identical;
      particle_beams.insert(particle_beams.end(), o.particle_beams.begin(),
                            o.particle_beams.end());
      active_particles.insert(active_particles.end(),
                              o.active_particles.begin(),
                              o.active_particles.end());
    }
  }
  res.check(sample_mismatch == 0,
            std::to_string(sample_mismatch) +
                " sampled sessions differ from a standalone Localizer replay");
  res.check(replica_mismatch == 0,
            std::to_string(replica_mismatch) +
                " lockstep replicas differ from the standalone Localizer");
  res.check(corrections > 0, "no corrections ran");

  // ---- end-to-end metrics --------------------------------------------------
  const double idle_bytes =
      static_cast<double>(rep.resident_particle_bytes + rep.stashed_snapshot_bytes) /
      static_cast<double>(spec.sessions);
  res.e2e("setup_s", median(setup_s), "s");
  res.e2e("correction_us_p50", rep.latency.p50 * 1e6, "us");
  // The same samples ServeReport merges, sliced in time (see bench.hpp).
  res.e2e("correction_us_p95",
          segmented_quantile(correction_slices, kTailQuantile) * 1e6, "us");
  {
    std::vector<double> v = input_latency_us;
    res.e2e("input_latency_us_p50", quantile(v, 0.50), "us");
  }
  res.e2e("cpu_us_per_correction",
          cpu_total_s * 1e6 / static_cast<double>(std::max<std::size_t>(1, corrections)),
          "us");
  res.e2e("corrections_per_s",
          static_cast<double>(corrections) / std::max(1e-9, pump_wall_s), "1/s");
  res.e2e("ate_m", err_n > 0 ? err_sum / static_cast<double>(err_n) : 0.0, "m");
  res.e2e("localized_share",
          static_cast<double>(localized) / static_cast<double>(spec.sessions),
          "ratio");
  res.e2e("idle_bytes_per_session", idle_bytes, "B");
  res.e2e("peak_rss_mb", peak_rss_mib(), "MiB");

  {
    std::vector<double> late = admission_wait_us;
    const double p99 = quantile(late, 0.99);
    const double mx = late.empty() ? 0.0 : late.back();
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%zu sessions, %zu inputs over %.2f s scheduled (%.2f s wall), "
                  "%zu corrections, %zu pumps; generator lateness p99 %.1f us, "
                  "max %.1f us",
                  spec.sessions, schedule.size(), seconds, run_wall_s,
                  corrections, pump_ms.size(), p99, mx);
    res.notes.push_back(buf);
    std::vector<double> il = input_latency_us;
    std::snprintf(buf, sizeof buf,
                  "input latency p90 %.0f us, p99 %.0f us, p999 %.0f us; "
                  "report() %.2f ms p50",
                  quantile(il, 0.9), quantile(il, 0.99), quantile(il, 0.999),
                  median(report_ms));
    res.notes.push_back(buf);
    std::snprintf(buf, sizeof buf,
                  "load generator busy %.0f%% of the run; pump CPU %.2f s "
                  "over %.2f s pump wall on %zu threads; %zu evictions, "
                  "%zu restores",
                  100.0 * loop_busy_s / run_wall_s, pump_cpu_s, pump_wall_s,
                  threads, evictions, restores);
    res.notes.push_back(buf);
  }

  // ---- per-layer metrics ----------------------------------------------------
  if (tracer.enabled()) {
    const auto p = [](std::vector<double> v, double q) { return quantile(v, q); };
    if (!churn) {
      res.layer("core.adapt_us_p50", median(tracer.durations("core.adapt")) * 1e6, "us");
      res.layer("core.particle_beams_per_correction", mean(particle_beams), "count");
      res.layer("core.active_particles_mean", mean(active_particles), "count");
      res.layer("core.build_context_ms",
                median(tracer.durations("core.build_context")) * 1e3, "ms");
      res.layer("serve.open_session_us_p50",
                median(tracer.durations("serve.open_session")) * 1e6, "us");
      res.layer("serve.push_us_p50", p(push_us, 0.50), "us");
      res.layer("serve.push_us_p99", p(push_us, 0.99), "us");
      res.layer("serve.pump_ms_p50", p(pump_ms, 0.50), "ms");
      res.layer("serve.pump_ms_p99", p(pump_ms, 0.99), "ms");
      res.layer("serve.pump_utilization",
                pump_cpu_s / std::max(1e-9, pump_wall_s * static_cast<double>(threads)),
                "ratio");
      res.layer("serve.idle_pump_us_p50", median(idle_pump_us), "us");
      res.layer("serve.admission_wait_us_p50", p(admission_wait_us, 0.50), "us");
      res.layer("serve.admission_wait_us_p99", p(admission_wait_us, 0.99), "us");
      res.layer("serve.report_ms_p50", median(report_ms), "ms");
    } else {
      core::ParticleArena::Stats arena{};
      for (const auto& ctx : built.contexts) {
        const core::ParticleArena::Stats s = ctx->arena()->stats();
        arena.reuses += s.reuses;
        arena.fresh_allocations += s.fresh_allocations;
      }
      res.layer("core.arena_reuse_ratio",
                static_cast<double>(arena.reuses) /
                    static_cast<double>(std::max<std::size_t>(
                        1, arena.reuses + arena.fresh_allocations)),
                "ratio");
      res.layer("map.snapshot_bytes_p50", median(store.blob_sizes), "B");
      res.layer("serve.restore_push_us_p50", p(restore_push_us, 0.50), "us");
      res.layer("serve.restore_push_us_p99", p(restore_push_us, 0.99), "us");
      res.layer("serve.evict_us_p50", median(evict_us), "us");
      res.layer("serve.store_put_us_p50", median(store.put_us), "us");
      res.layer("serve.store_take_us_p50", median(store.take_us), "us");
    }
  }
  return res;
}

}  // namespace

WorkloadResult run_serve_fleet(const Options& opt, double seconds,
                               Tracer& tracer) {
  FleetSpec spec;
  spec.sessions = 512;
  spec.particles = 256;
  spec.adaptive = true;
  spec.mixture = true;
  spec.walkers = 3;
  spec.operator_scrape = true;
  return run_serving(opt, spec, "serve_fleet", seconds, tracer);
}

WorkloadResult run_serve_churn(const Options& opt, double seconds,
                               Tracer& tracer) {
  FleetSpec spec;
  spec.sessions = 4096;
  spec.particles = 128;
  spec.burst_inputs = 8;
  spec.gap_s = 0.8;
  spec.pooled = true;
  return run_serving(opt, spec, "serve_churn", seconds, tracer);
}

}  // namespace perfbench
