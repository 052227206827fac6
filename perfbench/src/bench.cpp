#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <thread>

#include "bench.hpp"

namespace perfbench {

namespace {

std::int64_t read_clock(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

std::size_t this_thread_key() {
  return std::hash<std::thread::id>{}(std::this_thread::get_id());
}

}  // namespace

std::int64_t now_ns() { return read_clock(CLOCK_MONOTONIC); }

double thread_cpu_s() {
  return static_cast<double>(read_clock(CLOCK_THREAD_CPUTIME_ID)) * 1e-9;
}

double process_cpu_s() {
  return static_cast<double>(read_clock(CLOCK_PROCESS_CPUTIME_ID)) * 1e-9;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void sleep_until_ns(std::int64_t deadline_ns) {
  timespec ts{};
  ts.tv_sec = static_cast<time_t>(deadline_ns / 1000000000LL);
  ts.tv_nsec = static_cast<long>(deadline_ns % 1000000000LL);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

std::vector<std::vector<double>> slices(const std::vector<double>& v,
                                        std::size_t n) {
  std::vector<std::vector<double>> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    out[k].assign(v.begin() + static_cast<std::ptrdiff_t>(k * v.size() / n),
                  v.begin() + static_cast<std::ptrdiff_t>((k + 1) * v.size() / n));
  }
  return out;
}

double segmented_quantile(std::vector<std::vector<double>> segments,
                          double q) {
  std::vector<double> per_segment;
  for (std::vector<double>& s : segments) {
    if (!s.empty()) per_segment.push_back(quantile(s, q));
  }
  return median(per_segment);
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a + 0x9E3779B97F4A7C15ULL * (b + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---- Tracer ---------------------------------------------------------------

Tracer::Tracer(bool enabled)
    : enabled_(enabled), owner_thread_(this_thread_key()) {}

int Tracer::name(const std::string& span_name) {
  const auto it = ids_.find(span_name);
  if (it != ids_.end()) return it->second;
  const int id = static_cast<int>(names_.size());
  names_.push_back(span_name);
  durations_.emplace_back();
  ids_.emplace(span_name, id);
  return id;
}

bool Tracer::on_owner_thread() const {
  return this_thread_key() == owner_thread_;
}

std::int64_t Tracer::open(int name) {
  if (!enabled_ || !on_owner_thread()) return -1;
  Record rec;
  rec.name = name;
  rec.parent = stack_.empty() ? -1 : stack_.back();
  const auto index = static_cast<std::int64_t>(records_.size());
  records_.push_back(rec);
  stack_.push_back(index);
  // Stamp last, so the bookkeeping above is not inside the span.
  records_.back().start_ns = now_ns();
  return index;
}

void Tracer::close(std::int64_t index) {
  const std::int64_t end = now_ns();
  Record& rec = records_[static_cast<std::size_t>(index)];
  rec.end_ns = end;
  const std::int64_t dur = end - rec.start_ns;
  if (rec.parent >= 0) {
    records_[static_cast<std::size_t>(rec.parent)].child_ns += dur;
  }
  durations_[static_cast<std::size_t>(rec.name)].push_back(
      static_cast<double>(dur) * 1e-9);
  stack_.pop_back();
}

Tracer::Scope::Scope(Tracer& tracer, int name)
    : tracer_(&tracer), index_(tracer.open(name)) {}

Tracer::Scope::~Scope() {
  if (index_ >= 0) tracer_->close(index_);
}

std::vector<double> Tracer::durations(const std::string& span_name) const {
  const auto it = ids_.find(span_name);
  if (it == ids_.end()) return {};
  return durations_[static_cast<std::size_t>(it->second)];
}

std::map<std::string, double> Tracer::self_seconds_by_layer() const {
  std::map<std::string, double> out;
  for (const Record& rec : records_) {
    if (rec.end_ns == 0) continue;
    const std::string& n = names_[static_cast<std::size_t>(rec.name)];
    const std::string layer = n.substr(0, n.find('.'));
    out[layer] += static_cast<double>(rec.end_ns - rec.start_ns -
                                      rec.child_ns) *
                  1e-9;
  }
  return out;
}

bool Tracer::write(const std::string& path_prefix,
                   std::size_t max_spans) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path_prefix).parent_path(), ec);
  std::ofstream spans(path_prefix + ".spans.tsv");
  if (!spans) return false;
  spans << "index\tname\tparent\tstart_ns\tend_ns\tself_ns\n";
  const std::int64_t t0 = records_.empty() ? 0 : records_.front().start_ns;
  const std::size_t n = std::min(max_spans, records_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Record& r = records_[i];
    spans << i << '\t' << names_[static_cast<std::size_t>(r.name)] << '\t'
          << r.parent << '\t' << (r.start_ns - t0) << '\t' << (r.end_ns - t0)
          << '\t' << (r.end_ns - r.start_ns - r.child_ns) << '\n';
  }
  std::ofstream summary(path_prefix + ".summary.tsv");
  if (!summary) return false;
  summary << "name\tcount\ttotal_s\tself_s\tp50_us\n";
  std::vector<double> self(names_.size(), 0.0);
  for (const Record& r : records_) {
    self[static_cast<std::size_t>(r.name)] +=
        static_cast<double>(r.end_ns - r.start_ns - r.child_ns) * 1e-9;
  }
  for (std::size_t id = 0; id < names_.size(); ++id) {
    std::vector<double> d = durations_[id];
    const double total = std::accumulate(d.begin(), d.end(), 0.0);
    summary << names_[id] << '\t' << d.size() << '\t' << total << '\t'
            << self[id] << '\t' << quantile(d, 0.5) * 1e6 << '\n';
  }
  return static_cast<bool>(spans) && static_cast<bool>(summary);
}

}  // namespace perfbench
