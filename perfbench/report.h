// Shared pieces of the benchmark driver: the options every workload reads,
// wall clocks, heap and RSS probes, exact order statistics, and the metric
// sheet a run fills and prints.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hcube::perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

// Everything a workload is parameterised by. The defaults are the workload
// sizes the benchmark is defined at; the size flags exist for the
// small-size self-test (selftest.py) and are never passed by run.py.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;

  std::uint32_t n = 100'000;  // offline-built network
  std::uint32_t m = 10'000;   // concurrent joiners
  std::uint32_t lanes = 0;    // 0 = the workload's own choice
  std::uint32_t mixed_scripts = 32;
  std::uint32_t eq_scripts = 80;
  // Self-test hook: silently lose the first JoinNotiMsg of the wave, which
  // must make the output checks fail.
  bool drop_join_message = false;
};

// How many times a run repeats its timed work: one repetition per
// `seconds_per_rep` of --seconds (a fixed figure per workload, sized on the
// reference machine), at least 2. The count depends on the flags only, never
// on how fast the code under test runs, so every build is measured with the
// same estimator.
inline std::uint32_t repetitions(double seconds, double seconds_per_rep) {
  return static_cast<std::uint32_t>(
      std::max(2.0, std::round(seconds / seconds_per_rep)));
}

// Exact quantile of a sample (nearest rank on the sorted values: the value
// below which a fraction q of the samples lie). 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  std::size_t i = static_cast<std::size_t>(rank);
  if (static_cast<double>(i) == rank && i > 0) --i;
  return v[std::min(i, v.size() - 1)];
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Bytes the allocator has handed out right now (glibc mallinfo2).
std::uint64_t heap_in_use();
// Peak resident set of the process so far, in MB.
double peak_rss_mb();

// One run's outcome: named metrics, the output checks, and the
// attempted/failed operation counts. Names and units live in
// BENCHMARK.json; run.py turns the printed sheet into the result object.
class Report {
 public:
  void set(const std::string& name, double value);

  // Records an output check; a false condition fails the run.
  void check(bool ok, const std::string& what);

  void add_attempted(std::uint64_t n) { attempted_ += n; }
  void add_failed(std::uint64_t n) { failed_ += n; }

  bool correct() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }

  // Prints one "metric <name> <value>" line per metric set, then
  // "ops <attempted> <failed>".
  void print() const;

 private:
  std::vector<std::pair<std::string, double>> metrics_;
  std::vector<std::string> failures_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace hcube::perfbench
