// perfbench: the end-to-end benchmark of the localization stack.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-dir <dir>]
//
// Workloads: onboard_maze, onboard_pooled, serve_fleet, serve_churn.
//
// --trace 0 runs the named workload untraced and reports its end-to-end
// metrics. --trace 1 runs all four workloads traced, each for half of
// --seconds, and reports every per-layer metric, each taken from the
// workload that owns it (see perfbench/README.md); the named workload
// supplies the operation counts. Each traced workload writes its spans
// under --spans-dir. Human-readable accounting goes to
// stdout first; the last line of stdout is one JSON object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Exit status is nonzero when any output check fails.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

const std::vector<std::string> kWorkloads = {"onboard_maze", "onboard_pooled",
                                             "serve_fleet", "serve_churn"};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <onboard_maze|onboard_pooled|"
               "serve_fleet|serve_churn> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans-dir <dir>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value");
      return argv[++i];
    };
    const std::string flag = argv[i];
    if (flag == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::atof(value().c_str());
    } else if (flag == "--trace") {
      opt.trace = value() != "0";
    } else if (flag == "--spans-dir") {
      opt.spans_dir = value();
    } else {
      usage(("unknown option " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  bool known = false;
  for (const std::string& w : kWorkloads) known = known || w == opt.workload;
  if (!known) usage(("unknown workload " + opt.workload).c_str());
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  return opt;
}

WorkloadResult run_one(const std::string& name, const Options& opt,
                       double seconds, Tracer& tracer) {
  if (name == "onboard_maze") return run_onboard(opt, false, seconds, tracer);
  if (name == "onboard_pooled") return run_onboard(opt, true, seconds, tracer);
  if (name == "serve_fleet") return run_serve_fleet(opt, seconds, tracer);
  return run_serve_churn(opt, seconds, tracer);
}

void print_result(const WorkloadResult& r, const Options& opt) {
  std::printf("== %s  seed %llu\n", r.name.c_str(),
              static_cast<unsigned long long>(opt.seed));
  std::printf("   attempted %zu\n", r.attempted);
  for (const std::string& n : r.notes) std::printf("   %s\n", n.c_str());
  for (const auto& [name, m] : r.end_to_end) {
    std::printf("   %-28s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& [name, m] : r.per_layer) {
    std::printf("   %-36s %14.4f %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& f : r.check_failures) {
    std::printf("   CHECK FAILED: %s\n", f.c_str());
  }
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  // The named workload first; traced, the other three follow, each with a
  // tracer of its own so span names never mix across workloads.
  std::vector<std::string> order = {opt.workload};
  if (opt.trace) {
    for (const std::string& w : kWorkloads) {
      if (w != opt.workload) order.push_back(w);
    }
  }
  const double seconds = opt.trace ? opt.seconds / 2 : opt.seconds;

  bool correct = true;
  MetricMap metrics;
  std::size_t attempted = 0;
  for (const std::string& w : order) {
    Tracer tracer(opt.trace);
    const WorkloadResult r = run_one(w, opt, seconds, tracer);
    print_result(r, opt);
    if (w == opt.workload) {
      attempted = r.attempted;
    }
    correct = correct && r.check_failures.empty();
    const MetricMap& src = opt.trace ? r.per_layer : r.end_to_end;
    for (const auto& [name, m] : src) metrics[name] = m;
    if (opt.trace) {
      std::printf("   self time by layer (%zu spans):", tracer.span_count());
      for (const auto& [layer, sec] : tracer.self_seconds_by_layer()) {
        std::printf("  %s %.4f s", layer.c_str(), sec);
      }
      std::printf("\n");
      const std::string prefix = opt.spans_dir + "/" + w + "-seed" +
                                 std::to_string(opt.seed);
      if (!tracer.write(prefix, 200000)) {
        std::fprintf(stderr, "cannot write spans under %s\n",
                     opt.spans_dir.c_str());
        return 1;
      }
      std::printf("   spans: %s.spans.tsv, %s.summary.tsv\n", prefix.c_str(),
                  prefix.c_str());
    }
  }
  if (!correct) {
    std::fprintf(stderr, "perfbench: output checks failed\n");
    return 1;
  }

  // Every operation either completes or fails an output check, which
  // exits above; so no completed run has failed operations.
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": 0, \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    json += (first ? "" : ", ");
    json += "\"" + name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
