#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace hcube {
namespace {

TEST(StreamingStats, EmptyIsZero) {
  StreamingStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, SingleValue) {
  StreamingStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_EQ(s.mean(), 42.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.min(), 42.0);
  EXPECT_EQ(s.max(), 42.0);
}

TEST(StreamingStats, KnownMoments) {
  StreamingStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 denominator: sum of squared deviations is 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min(), 2.0);
  EXPECT_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.sum(), 40.0, 1e-12);
}

TEST(StreamingStats, NumericalStabilityWithLargeOffset) {
  StreamingStats s;
  const double offset = 1e12;
  for (double x : {1.0, 2.0, 3.0}) s.add(offset + x);
  EXPECT_NEAR(s.mean(), offset + 2.0, 1e-3);
  EXPECT_NEAR(s.variance(), 1.0, 1e-3);
}

TEST(EmpiricalDistribution, MeanAndExtremes) {
  EmpiricalDistribution d;
  for (int v : {1, 2, 2, 3, 3, 3}) d.add(v);
  EXPECT_EQ(d.count(), 6u);
  EXPECT_NEAR(d.mean(), 14.0 / 6.0, 1e-12);
  EXPECT_EQ(d.min(), 1);
  EXPECT_EQ(d.max(), 3);
}

TEST(EmpiricalDistribution, Cdf) {
  EmpiricalDistribution d;
  for (int v : {1, 2, 2, 3, 3, 3, 10}) d.add(v);
  EXPECT_DOUBLE_EQ(d.cdf(0), 0.0);
  EXPECT_DOUBLE_EQ(d.cdf(1), 1.0 / 7.0);
  EXPECT_DOUBLE_EQ(d.cdf(2), 3.0 / 7.0);
  EXPECT_DOUBLE_EQ(d.cdf(3), 6.0 / 7.0);
  EXPECT_DOUBLE_EQ(d.cdf(9), 6.0 / 7.0);
  EXPECT_DOUBLE_EQ(d.cdf(10), 1.0);
  EXPECT_DOUBLE_EQ(d.cdf(1000), 1.0);
}

TEST(EmpiricalDistribution, Quantiles) {
  EmpiricalDistribution d;
  for (int v = 1; v <= 100; ++v) d.add(v);
  EXPECT_EQ(d.quantile(0.01), 1);
  EXPECT_EQ(d.quantile(0.5), 50);
  EXPECT_EQ(d.quantile(0.99), 99);
  EXPECT_EQ(d.quantile(1.0), 100);
}

TEST(EmpiricalDistribution, CdfPointsAreMonotone) {
  EmpiricalDistribution d;
  for (int v : {5, 1, 9, 1, 5, 5, 2}) d.add(v);
  const auto points = d.cdf_points();
  ASSERT_EQ(points.size(), 4u);  // distinct values 1, 2, 5, 9
  double prev = 0.0;
  for (const auto& [value, p] : points) {
    EXPECT_GT(p, prev);
    prev = p;
  }
  EXPECT_DOUBLE_EQ(points.back().second, 1.0);
}

}  // namespace
}  // namespace hcube
