#include "util/stats.h"

#include <cmath>

#include "util/check.h"

namespace hcube {

void StreamingStats::add(double x) {
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (x < min_) min_ = x;
  if (x > max_) max_ = x;
}

double StreamingStats::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double StreamingStats::stddev() const { return std::sqrt(variance()); }

double EmpiricalDistribution::mean() const {
  if (n_ == 0) return 0.0;
  double sum = 0.0;
  for (const auto& [v, c] : counts_)
    sum += static_cast<double>(v) * static_cast<double>(c);
  return sum / static_cast<double>(n_);
}

std::int64_t EmpiricalDistribution::min() const {
  HCUBE_CHECK(n_ > 0);
  return counts_.begin()->first;
}

std::int64_t EmpiricalDistribution::max() const {
  HCUBE_CHECK(n_ > 0);
  return counts_.rbegin()->first;
}

double EmpiricalDistribution::cdf(std::int64_t value) const {
  if (n_ == 0) return 0.0;
  std::uint64_t acc = 0;
  for (const auto& [v, c] : counts_) {
    if (v > value) break;
    acc += c;
  }
  return static_cast<double>(acc) / static_cast<double>(n_);
}

std::int64_t EmpiricalDistribution::quantile(double q) const {
  HCUBE_CHECK(n_ > 0);
  HCUBE_CHECK(q > 0.0 && q <= 1.0);
  const double target = q * static_cast<double>(n_);
  std::uint64_t acc = 0;
  for (const auto& [v, c] : counts_) {
    acc += c;
    if (static_cast<double>(acc) >= target) return v;
  }
  return counts_.rbegin()->first;
}

std::vector<std::pair<std::int64_t, double>>
EmpiricalDistribution::cdf_points() const {
  std::vector<std::pair<std::int64_t, double>> out;
  out.reserve(counts_.size());
  std::uint64_t acc = 0;
  for (const auto& [v, c] : counts_) {
    acc += c;
    out.emplace_back(v, static_cast<double>(acc) / static_cast<double>(n_));
  }
  return out;
}

}  // namespace hcube
