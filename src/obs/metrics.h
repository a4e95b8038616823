// The metrics registry: named counters, gauges and log-bucketed histograms
// with merge, quantile estimation and a stable JSON export schema.
//
// Design rules:
//   * Zero allocation on the hot path. Registration (counter()/gauge()/
//     histogram()) interns the name once and returns a dense MetricId;
//     add()/set()/observe() are then a vector index plus an integer or
//     float update — no hashing, no allocation. The *_named conveniences
//     exist for cold paths (collection, tooling) only.
//   * Log-bucketed histograms. Bucket 0 holds [0, 1), bucket i >= 1 holds
//     [2^(i-1), 2^i). Power-of-two edges make merge a bucket-wise add —
//     trivially associative — and give quantile estimates that are exact to
//     within one octave, which is what latency trajectories need.
//   * Stable export. to_json() sorts by name and emits the versioned
//     "hcube.metrics.v1" schema; from_json() inverts it exactly, so
//     registries round-trip and BENCH_*.json artifacts diff cleanly.
//
// Registries are per-scope: each node's stats structs export into one via
// obs/collect.h, the Overlay aggregate is the merge of all of them, and
// benches build their own. A registry is externally synchronized — exactly
// one owner (today the single-threaded simulator, tomorrow one shard)
// touches it at a time. That contract is machine-checked: every member is
// HCUBE_GUARDED_BY(owner_) and every method asserts the ownership
// capability, so a new accessor that forgets the assertion fails the CI
// thread-safety job (util/thread_safety.h, DESIGN.md §15). Cross-shard
// aggregation stays a merge of per-shard registries, never shared writes.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/metric.h"
#include "util/thread_safety.h"

namespace hcube::obs {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };
const char* to_string(MetricKind k);

// Histogram over non-negative values with power-of-two bucket edges.
class LogHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  // Bucket 0 covers [0, 1); bucket i >= 1 covers [2^(i-1), 2^i); the last
  // bucket absorbs everything beyond.
  static std::size_t bucket_of(double v);
  static double bucket_lo(std::size_t i);
  static double bucket_hi(std::size_t i);

  void observe(double v);
  void merge_from(const LogHistogram& other);
  void reset();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  double min() const { return count_ == 0 ? 0.0 : min_; }
  double max() const { return count_ == 0 ? 0.0 : max_; }
  std::uint64_t bucket(std::size_t i) const { return buckets_[i]; }

  // Upper edge of the bucket holding the q-quantile (clamped to the
  // observed max): exact to within one octave, and monotone in q.
  double quantile(double q) const;

  // Deserialization (from_json): add `count` observations into bucket `i`
  // and restore the exact moments alongside.
  void restore_bucket(std::size_t i, std::uint64_t count);
  void restore_moments(double sum, double mn, double mx);

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

class MetricsRegistry {
 public:
  using Id = std::uint32_t;
  static constexpr const char* kSchema = "hcube.metrics.v1";

  // Register-or-look-up by name. The name must match ^[a-z0-9_.]+$ and the
  // kind must agree with any previous registration (checked).
  Id counter(std::string_view name) { return intern(name, MetricKind::kCounter); }
  Id gauge(std::string_view name) { return intern(name, MetricKind::kGauge); }
  Id histogram(std::string_view name) {
    return intern(name, MetricKind::kHistogram);
  }

  // ---- hot path: plain array updates, no allocation, no hashing ----
  // (assert_held() is a compile-time ownership claim, a no-op at runtime.)
  void add(Id id, std::uint64_t delta = 1) {
    owner_.assert_held();
    entries_[id].count += delta;
  }
  void set(Id id, double v) {
    owner_.assert_held();
    entries_[id].gauge = v;
  }
  void observe(Id id, double v) {
    owner_.assert_held();
    entries_[id].hist.observe(v);
  }

  // ---- cold-path conveniences (collection, tooling) ----
  void add_named(std::string_view name, std::uint64_t delta = 1) {
    add(counter(name), delta);
  }
  void set_named(std::string_view name, double v) { set(gauge(name), v); }
  void observe_named(std::string_view name, double v) {
    observe(histogram(name), v);
  }

  std::size_t size() const {
    owner_.assert_held();
    return entries_.size();
  }
  bool contains(std::string_view name) const;
  // 0 / 0.0 / nullptr when the name is not registered (or another kind).
  std::uint64_t counter_value(std::string_view name) const;
  double gauge_value(std::string_view name) const;
  const LogHistogram* histogram_named(std::string_view name) const;

  // Counters and histograms accumulate; gauges take the other's value.
  // Names absent here are registered.
  void merge_from(const MetricsRegistry& other);
  // Zeroes every value, keeps registrations (and Ids) intact.
  void reset();

  template <class Fn>  // fn(name, kind, entry accessors) — export order
  void for_each(Fn&& fn) const {
    owner_.assert_held();
    for (const Entry& e : entries_) fn(e.name, e.kind, e.count, e.gauge, e.hist);
  }

  // Versioned, deterministic (name-sorted, compact) export.
  std::string to_json() const;
  static std::optional<MetricsRegistry> from_json(const std::string& text,
                                                  std::string* error = nullptr);

  // Deserialization helper: merges a rebuilt histogram into `name`.
  void hist_restore(std::string_view name, const LogHistogram& h);

 private:
  struct Entry {
    std::string name;
    MetricKind kind = MetricKind::kCounter;
    std::uint64_t count = 0;  // kCounter
    double gauge = 0.0;       // kGauge
    LogHistogram hist;        // kHistogram
  };

  Id intern(std::string_view name, MetricKind kind);
  const Entry* lookup(std::string_view name) const;

  ExternallySynchronized owner_;  // single-owner capability (see header)
  std::vector<Entry> entries_ HCUBE_GUARDED_BY(owner_);
  std::unordered_map<std::string, Id> index_ HCUBE_GUARDED_BY(owner_);
};

}  // namespace hcube::obs
