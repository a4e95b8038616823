// Streaming statistics and empirical CDFs used by the benchmark harness
// (Figure 15(b) reproduces a CDF of per-join message counts).
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <vector>

namespace hcube {

// Welford one-pass mean/variance plus min/max.
class StreamingStats {
 public:
  void add(double x);

  std::uint64_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  // Sample variance (n-1 denominator); 0 for n < 2.
  double variance() const;
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double sum() const { return n_ ? mean_ * static_cast<double>(n_) : 0.0; }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

// Empirical distribution over integer-valued observations (e.g. message
// counts). Exact: keeps one bucket per distinct value.
class EmpiricalDistribution {
 public:
  void add(std::int64_t value) { ++counts_[value]; ++n_; }

  std::uint64_t count() const { return n_; }
  double mean() const;
  std::int64_t min() const;
  std::int64_t max() const;

  // P[X <= value].
  double cdf(std::int64_t value) const;
  // Smallest value v with P[X <= v] >= q, q in (0, 1].
  std::int64_t quantile(double q) const;

  // (value, cumulative probability) points, one per distinct value, suitable
  // for plotting a CDF curve.
  std::vector<std::pair<std::int64_t, double>> cdf_points() const;

  const std::map<std::int64_t, std::uint64_t>& buckets() const {
    return counts_;
  }

 private:
  std::map<std::int64_t, std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

}  // namespace hcube
