// Theorem-bound regression tests, driven by the join-lifecycle span tracer.
//
// Promotes Theorem 3 to tier-1: in a 128-node network absorbing 128
// concurrent joins, every completed join attempt must satisfy
//   #CpRstMsg + #JoinWaitMsg <= d + 1            (Theorem 3)
// measured per attempt by its span (not per node lifetime), and the mean
// #JoinNotiMsg across completed joins must stay under the Theorem 5
// concurrent-join bound. Three seeds; the worlds are deterministic, so a
// violation is a protocol regression, not flakiness.
//
// The negative half seeds a fault by hand: a synthetic span trajectory
// with one CpRstMsg retry too many must be flagged by
// theorem3_violations() — the check that the CI bench-trend job and this
// test stand on actually fires when the bound is crossed.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "analysis/join_cost.h"
#include "core/builder.h"
#include "obs/join_span.h"
#include "obs/metrics.h"
#include "test_util.h"

namespace hcube::obs {
namespace {

using hcube::testing::World;
using hcube::testing::make_ids;

class TheoremBounds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TheoremBounds, ConcurrentJoinsRespectTheorem3AndTheorem5) {
  const std::uint64_t seed = GetParam();
  const IdParams params{16, 8};
  constexpr std::size_t kSeeds = 128;
  constexpr std::size_t kJoiners = 128;

  World world(params, kSeeds + kJoiners);
  const auto ids = make_ids(params, kSeeds + kJoiners, seed);
  const std::vector<NodeId> v_ids(ids.begin(),
                                  ids.begin() + static_cast<long>(kSeeds));
  const std::vector<NodeId> w_ids(ids.begin() + static_cast<long>(kSeeds),
                                  ids.end());
  build_consistent_network(world.overlay, v_ids);

  JoinSpanTracer tracer;
  tracer.attach(world.overlay);

  Rng rng(seed ^ 0x5eed);
  join_concurrently(world, w_ids, v_ids, rng, /*window_ms=*/0.0);
  ASSERT_TRUE(world.overlay.all_in_system());

  // Exactly one span per joiner, all completed, none leaked open.
  EXPECT_EQ(kJoiners, tracer.spans().size());
  EXPECT_EQ(0u, tracer.open_count());
  std::size_t completed = 0;
  for (const JoinSpan& span : tracer.spans()) {
    EXPECT_EQ(SpanTerminal::kCompleted, span.terminal)
        << "unterminated join attempt for a node the overlay reports "
           "in-system";
    if (span.terminal == SpanTerminal::kCompleted) ++completed;
    // Theorem 3, per attempt.
    EXPECT_LE(span.copy_plus_wait(), theorem3_bound(params))
        << "join exceeded the d+1 copy/wait budget (seed " << seed << ")";
  }
  EXPECT_EQ(kJoiners, completed);
  EXPECT_TRUE(tracer.theorem3_violations(params).empty());

  // Theorem 5: mean JoinNotiMsg under the concurrent-join bound.
  const double bound =
      expected_join_noti_concurrent_bound(params, kSeeds, kJoiners);
  EXPECT_LE(tracer.mean_noti_sent(), bound)
      << "mean JoinNoti " << tracer.mean_noti_sent() << " exceeds Theorem 5 "
      << bound << " (seed " << seed << ")";

  // The span summary export agrees with the raw spans.
  MetricsRegistry reg;
  tracer.summary_to(reg);
  EXPECT_EQ(completed, reg.counter_value(kMetricSpanCompleted));
  ASSERT_NE(nullptr, reg.histogram_named(kMetricSpanCopyWaitSent));
  EXPECT_LE(reg.histogram_named(kMetricSpanCopyWaitSent)->max(),
            static_cast<double>(theorem3_bound(params)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TheoremBounds,
                         ::testing::Values(1u, 2u, 3u));

// Seeded fault: a join trajectory that sends one CpRstMsg per level plus a
// forced extra retry without backoff accounting — d+2 copy-phase requests,
// past the d+1 budget. theorem3_violations() must flag it.
TEST(TheoremBoundsNegative, ForcedExtraCpRstRetryIsFlagged) {
  const IdParams params{16, 8};
  const NodeId node = hcube::testing::id_of("00000000", params);

  JoinSpanTracer tracer;
  tracer.record_status(0.0, node, NodeStatus::kCopying, /*gen=*/1);
  for (std::uint64_t i = 0; i < theorem3_bound(params) + 1; ++i)
    tracer.record_send(node, MessageType::kCpRst);
  tracer.record_status(10.0, node, NodeStatus::kWaiting, 1);
  tracer.record_status(20.0, node, NodeStatus::kNotifying, 1);
  tracer.record_status(30.0, node, NodeStatus::kInSystem, 1);

  ASSERT_EQ(1u, tracer.spans().size());
  EXPECT_EQ(SpanTerminal::kCompleted, tracer.spans().front().terminal);
  const auto violations = tracer.theorem3_violations(params);
  ASSERT_EQ(1u, violations.size());
  EXPECT_EQ(theorem3_bound(params) + 1, violations.front()->copy_plus_wait());
}

// The same budget split across CpRst and JoinWait, exactly at the bound:
// not a violation. One more JoinWait: a violation.
TEST(TheoremBoundsNegative, BoundIsTightAtDPlusOne) {
  const IdParams params{16, 8};
  const NodeId node = hcube::testing::id_of("00000001", params);

  JoinSpanTracer tracer;
  tracer.record_status(0.0, node, NodeStatus::kCopying, 1);
  for (std::uint64_t i = 0; i < theorem3_bound(params) - 1; ++i)
    tracer.record_send(node, MessageType::kCpRst);
  tracer.record_send(node, MessageType::kJoinWait);
  tracer.record_status(5.0, node, NodeStatus::kInSystem, 1);
  EXPECT_TRUE(tracer.theorem3_violations(params).empty());

  JoinSpanTracer over;
  over.record_status(0.0, node, NodeStatus::kCopying, 1);
  for (std::uint64_t i = 0; i < theorem3_bound(params); ++i)
    over.record_send(node, MessageType::kCpRst);
  over.record_send(node, MessageType::kJoinWait);
  over.record_status(5.0, node, NodeStatus::kInSystem, 1);
  EXPECT_EQ(1u, over.theorem3_violations(params).size());
}

}  // namespace
}  // namespace hcube::obs
