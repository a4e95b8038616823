// The analytic model of Section 5.2 (Theorems 4 and 5): internal
// consistency, agreement with Monte-Carlo, agreement with an independent
// closed form, and agreement with the simulated protocol.
#include "analysis/join_cost.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "test_util.h"
#include "util/logmath.h"
#include "util/stats.h"

namespace hcube {
namespace {

using testing::World;
using testing::make_ids;

TEST(JoinCost, DistributionSumsToOne) {
  for (auto [b, d, n] :
       {std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>{16, 8, 1000},
        {16, 40, 1000}, {16, 40, 100000}, {2, 10, 100}, {4, 6, 500},
        {16, 8, 1}, {8, 5, 3000}}) {
    const IdParams params{b, d};
    const auto p = notification_level_distribution(params, n);
    const double sum = std::accumulate(p.begin(), p.end(), 0.0);
    EXPECT_NEAR(sum, 1.0, 1e-9) << "b=" << b << " d=" << d << " n=" << n;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 1.0 + 1e-12);
    }
  }
}

TEST(JoinCost, MatchesIndependentClosedForm) {
  // P[level = i] = P[no sharer of >= i+1 digits] - P[no sharer of >= i
  // digits]; an independent derivation the paper's per-k sum must agree
  // with.
  for (auto [b, d, n] :
       {std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>{16, 8, 1000},
        {4, 6, 200}, {2, 12, 50}, {16, 40, 20000}}) {
    const IdParams params{b, d};
    const double space = std::pow(double(b), double(d));
    const auto p = notification_level_distribution(params, n);
    auto p_no_sharer_at_least = [&](std::uint32_t len) {
      // P[V avoids all IDs sharing >= len suffix digits with x].
      const double sharers = std::pow(double(b), double(d - len)) - 1.0;
      return std::exp(log_binomial(space - 1.0 - sharers, n) -
                      log_binomial(space - 1.0, n));
    };
    for (std::uint32_t i = 0; i + 1 < d; ++i) {
      const double closed =
          p_no_sharer_at_least(i + 1) - p_no_sharer_at_least(i);
      EXPECT_NEAR(p[i], closed, 1e-8 + 1e-6 * closed)
          << "b=" << b << " d=" << d << " n=" << n << " i=" << i;
    }
  }
}

TEST(JoinCost, MatchesMonteCarlo) {
  const IdParams params{4, 6};
  const std::uint64_t n = 60;
  const auto analytic = notification_level_distribution(params, n);
  Rng rng(77);
  const auto mc =
      notification_level_distribution_mc(params, n, /*trials=*/20000, rng);
  for (std::uint32_t i = 0; i < params.num_digits; ++i) {
    EXPECT_NEAR(analytic[i], mc[i], 0.015) << "level " << i;
  }
}

TEST(JoinCost, ExpectedJoinNotiModest) {
  // Theorem 4's E[J] uses n/b^i as the expected notification-set size given
  // level i, which slightly undershoots for degenerate n (at n = 1 the
  // formula gives ~ -0.06); it must always stay within [-1, O(b log_b n)].
  for (std::uint64_t n : {1ull, 10ull, 100ull, 10000ull, 100000ull}) {
    for (auto [b, d] : {std::pair<std::uint32_t, std::uint32_t>{16, 8},
                        {16, 40}}) {
      const double e = expected_join_noti_single(IdParams{b, d}, n);
      EXPECT_GE(e, -1.0) << "n=" << n;
      EXPECT_LT(e, 64.0) << "n=" << n;
      if (n >= 100) {
        EXPECT_GT(e, 0.0) << "n=" << n;
      }
    }
  }
}

TEST(JoinCost, PaperFigure15aValues) {
  // Section 5.2 reports Theorem 5 upper bounds of 8.001 (n = 3096,
  // m = 1000) and 6.986 (n = 7192, m = 1000) for b = 16, at both d = 8 and
  // d = 40.
  for (std::uint32_t d : {8u, 40u}) {
    const IdParams params{16, d};
    EXPECT_NEAR(expected_join_noti_concurrent_bound(params, 3096, 1000),
                8.001, 0.01)
        << "d=" << d;
    EXPECT_NEAR(expected_join_noti_concurrent_bound(params, 7192, 1000),
                6.986, 0.01)
        << "d=" << d;
  }
}

TEST(JoinCost, BoundGrowsSlowlyWithN) {
  // Figure 15(a)'s shape: the bound is increasing-but-flattening in n
  // (roughly b/(b-1)-periodic sawtooth around log_b growth; across decades
  // it must stay within a small band).
  const IdParams params{16, 40};
  const double e1 = expected_join_noti_concurrent_bound(params, 10000, 500);
  const double e2 = expected_join_noti_concurrent_bound(params, 100000, 500);
  EXPECT_GT(e2, 2.0);
  EXPECT_LT(e2 / e1, 2.0);  // 10x nodes, far less than 2x messages
}

TEST(JoinCost, ConcurrentBoundExceedsSingleExpectation) {
  const IdParams params{16, 8};
  for (std::uint64_t n : {1000ull, 5000ull}) {
    EXPECT_GT(expected_join_noti_concurrent_bound(params, n, 500),
              expected_join_noti_single(params, n));
  }
}

TEST(JoinCost, MoreJoinersRaiseTheBound) {
  const IdParams params{16, 8};
  EXPECT_GT(expected_join_noti_concurrent_bound(params, 10000, 1000),
            expected_join_noti_concurrent_bound(params, 10000, 500));
}

TEST(JoinCost, SimulationRespectsTheorem5Bound) {
  // End-to-end: measured average JoinNotiMsg per joiner stays below the
  // Theorem 5 bound (and is positive for non-trivial networks).
  const IdParams params{4, 6};
  const std::size_t n = 120, m = 60;
  World world(params, n + m);
  auto ids = make_ids(params, n + m, 2024);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + n);
  const std::vector<NodeId> w(ids.begin() + n, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(6);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());

  double total = 0.0;
  for (const NodeId& x : w)
    total += static_cast<double>(
        world.overlay.at(x).join_stats().sent_of(MessageType::kJoinNoti));
  const double avg = total / static_cast<double>(m);
  const double bound = expected_join_noti_concurrent_bound(params, n, m);
  EXPECT_LE(avg, bound * 1.05) << "avg=" << avg << " bound=" << bound;
}

TEST(JoinCost, SingleJoinAverageTracksTheorem4) {
  // Many independent single joins into same-sized networks: the measured
  // mean should be within a few standard errors of Theorem 4's E[J].
  const IdParams params{4, 5};
  const std::size_t n = 100;
  const double expected = expected_join_noti_single(params, n);
  StreamingStats stats;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    World world(params, n + 1, {}, seed);
    auto ids = make_ids(params, n + 1, 5000 + seed);
    const std::vector<NodeId> v(ids.begin(), ids.begin() + n);
    build_consistent_network(world.overlay, v);
    world.schedule_join(ids[n], v[seed % n], 0.0);
    world.drain();
    ASSERT_TRUE(world.overlay.all_in_system());
    stats.add(static_cast<double>(
        world.overlay.at(ids[n]).join_stats().sent_of(
            MessageType::kJoinNoti)));
  }
  const double stderr_est = stats.stddev() / std::sqrt(40.0) + 0.3;
  EXPECT_NEAR(stats.mean(), expected, 4.0 * stderr_est)
      << "measured " << stats.mean() << " expected " << expected;
}

}  // namespace
}  // namespace hcube
