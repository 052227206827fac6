#pragma once
/// \file bench.hpp
/// \brief Shared vocabulary of the end-to-end benchmark: options, clocks,
/// order statistics, the per-workload result record and the span tracer.
///
/// Everything here is benchmark code. The program under test is reached
/// only through the public headers of src/{common,sensor,map,core,serve};
/// spans are recorded HERE, around the calls the benchmark makes into
/// each layer, never inside the program.

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace tofmcl {}

namespace perfbench {

// The benchmark speaks the program's vocabulary (Pose2, core::, serve::).
using namespace tofmcl;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the traced run writes its span files into.
  std::string spans_dir = ".bench_build/spans";
};

// ---- clocks ---------------------------------------------------------------

/// Monotonic wall clock, nanoseconds.
std::int64_t now_ns();
/// CPU time of the calling thread / of the whole process, seconds.
double thread_cpu_s();
double process_cpu_s();
/// Peak resident set size of the process, MiB.
double peak_rss_mib();

inline double ns_to_us(std::int64_t ns) { return static_cast<double>(ns) * 1e-3; }

/// Sleeps until the monotonic clock reads `deadline_ns`.
void sleep_until_ns(std::int64_t deadline_ns);

// ---- statistics -----------------------------------------------------------

/// Linear-interpolated quantile (q in [0, 1]) of `v`; v is reordered.
/// Returns 0 for an empty sample.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);

/// Tail percentile of a run, robust to the host: `segments` is a list of
/// the run's consecutive slices (samples in time order within each); the
/// result is the median over the slices of each slice's q-quantile. A
/// tail the program causes throughout the run shows in every slice; a
/// stall the host causes in one slice does not move the median.
double segmented_quantile(std::vector<std::vector<double>> segments, double q);
/// Splits time-ordered samples into `n` consecutive equal slices.
std::vector<std::vector<double>> slices(const std::vector<double>& v,
                                        std::size_t n);
/// Number of slices every run's tail percentiles use.
constexpr std::size_t kTailSlices = 5;
/// The tail percentile the end-to-end metrics report. A p99 of a ~100 µs
/// serving correction is set by how often the host preempts a thread, and
/// moved 2–4x between runs of the same code; the p95 held within ~10%.
constexpr double kTailQuantile = 0.95;

/// SplitMix64 finalization of a golden-ratio combination: derived seeds
/// are pure functions of (a, b).
std::uint64_t mix(std::uint64_t a, std::uint64_t b);

// ---- results --------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/// What one workload reports: operations attempted (flights on board,
/// scheduled inputs when serving), the end-to-end metrics, the per-layer
/// metrics it owns (traced runs only), output check failures, and
/// human-readable accounting lines.
struct WorkloadResult {
  std::string name;
  std::size_t attempted = 0;
  MetricMap end_to_end;
  MetricMap per_layer;
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;

  void check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void e2e(const std::string& name_, double value, const char* unit) {
    end_to_end[name_] = {value, unit};
  }
  void layer(const std::string& name_, double value, const char* unit) {
    per_layer[name_] = {value, unit};
  }
};

// ---- tracing --------------------------------------------------------------

/// Span recorder for the traced run. A span is (name, start, end,
/// parent); spans nest through a stack, so a layer's self time is its
/// duration minus what its child spans cover. Spans are kept in memory
/// and written out once, when the benchmark ends. Spans are opened only
/// on the thread that created the tracer (every call the benchmark makes
/// into a layer is made from its driving thread); a span requested from
/// any other thread is ignored. A disabled tracer reads no clock.
class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  /// Interned span name; intern once, outside hot loops.
  int name(const std::string& span_name);

  class Scope {
   public:
    Scope(Tracer& tracer, int name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    std::int64_t index_ = -1;
  };

  /// Duration samples (seconds) of every closed span called `span_name`.
  std::vector<double> durations(const std::string& span_name) const;
  /// Σ self time per layer (span-name prefix before the first '.').
  std::map<std::string, double> self_seconds_by_layer() const;
  std::size_t span_count() const { return records_.size(); }

  /// Writes every span (up to `max_spans`, in start order) as TSV plus a
  /// per-name summary. Returns false when the files cannot be written.
  bool write(const std::string& path_prefix, std::size_t max_spans) const;

 private:
  struct Record {
    int name = 0;
    std::int64_t parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t child_ns = 0;
  };

  std::int64_t open(int name);
  void close(std::int64_t index);
  bool on_owner_thread() const;

  bool enabled_;
  std::size_t owner_thread_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<Record> records_;
  std::vector<std::int64_t> stack_;
  std::vector<std::vector<double>> durations_;  ///< Per name id.
};

}  // namespace perfbench
