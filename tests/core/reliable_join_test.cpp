// End-to-end robustness: the full join protocol over a lossy network healed
// by the ReliableTransport decorator, plus the join-stall watchdog for the
// losses the ARQ layer gives up on. Companion to the FailureInjection tests
// in protocol_invariants_test.cpp, which show the same losses *above* the
// reliable layer stalling joins forever.
#include <gtest/gtest.h>

#include <cstdlib>
#include <variant>
#include <vector>

#include "net/fault_plan.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::make_ids;

TEST(ReliableJoin, LossyConcurrentJoinsConvergeAcrossSeeds) {
  // Acceptance scenario: 64 concurrent joins into a 256-node network under
  // 5% loss + 5% duplication, repeated for three seeds. Every join must
  // terminate and the final network must satisfy Definition 3.8. CI's
  // fault-matrix job widens the sweep via HCUBE_FAULT_SEED.
  std::vector<std::uint64_t> seeds{11, 22, 33};
  if (const char* extra = std::getenv("HCUBE_FAULT_SEED"))
    seeds.push_back(std::strtoull(extra, nullptr, 10));
  for (const std::uint64_t seed : seeds) {
    const IdParams params{4, 8};
    ProtocolOptions options;
    options.join_watchdog_ms = 60000.0;  // >> the ARQ layer's worst span
    World world(params, 320, options, /*latency_seed=*/seed);

    FaultPlan plan(seed);
    plan.set_default({.drop = 0.05, .duplicate = 0.05});
    plan.attach(world.net.lane_transport(0));

    auto ids = make_ids(params, 320, seed);
    const std::vector<NodeId> v(ids.begin(), ids.begin() + 256);
    const std::vector<NodeId> w(ids.begin() + 256, ids.end());
    build_consistent_network(world.overlay, v);

    Rng rng(seed);
    join_concurrently(world, w, v, rng, /*window_ms=*/1000.0);

    EXPECT_TRUE(world.overlay.all_in_system()) << "seed " << seed;
    const auto report = check_consistency(view_of(world.overlay));
    EXPECT_TRUE(report.consistent())
        << "seed " << seed << "\n" << report.summary(params);
    // The run was genuinely lossy and the ARQ layer genuinely worked.
    EXPECT_GT(plan.drops_injected(), 0u);
    EXPECT_GT(plan.duplicates_injected(), 0u);
    EXPECT_GT(world.net.rel_stats().retransmits, 0u);
    EXPECT_GT(world.net.rel_stats().dup_suppressed, 0u);
    EXPECT_EQ(world.net.rel_in_flight(), 0u);
  }
}

TEST(ReliableJoin, WatchdogRestartsAJoinTheArqLayerGaveUpOn) {
  // Drop the joiner's JoinWaitMsg beyond the retry budget (original + both
  // retransmissions): the ARQ layer abandons it and the join would stall in
  // kWaiting forever. The watchdog aborts the attempt and the restarted one
  // completes (its JoinWaitMsg is the 4th match, past the drop budget).
  const IdParams params{4, 6};
  ProtocolOptions options;
  options.join_watchdog_ms = 10000.0;
  ReliabilityConfig cfg;
  cfg.rto_ms = 500.0;
  cfg.backoff = 2.0;
  cfg.max_retries = 2;
  World world(params, 20, options, /*latency_seed=*/42, cfg);

  FaultPlan plan(5);
  plan.set_for_type(MessageType::kJoinWait, {.drop = 1.0, .max_drops = 3});
  plan.attach(world.net.lane_transport(0));

  auto ids = make_ids(params, 17, 21);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 16);
  const NodeId joiner = ids.back();
  build_consistent_network(world.overlay, v);

  world.schedule_join(joiner, v[0], 0.0);
  world.drain();

  EXPECT_TRUE(world.overlay.all_in_system());
  const JoinStats& s = world.overlay.at(joiner).join_stats();
  EXPECT_EQ(s.watchdog_restarts, 1u);
  EXPECT_EQ(world.net.rel_stats().give_ups, 1u);
  const auto report = check_consistency(view_of(world.overlay));
  EXPECT_TRUE(report.consistent()) << report.summary(params);
}

TEST(ReliableJoin, NotificationsCarryTheJoinersLevelAcrossAWatchdogRestart) {
  // Drop the first JoinNotiRlyMsg beyond the retry budget: the joiner
  // stalls in kNotifying until the watchdog restarts it there. Every
  // JoinNotiMsg, before the restart and after it, must announce the
  // notification level the joiner's JoinStats holds at send time — the
  // node keeps that level in one place.
  const IdParams params{4, 6};
  ProtocolOptions options;
  options.join_watchdog_ms = 10000.0;
  ReliabilityConfig cfg;
  cfg.rto_ms = 500.0;
  cfg.backoff = 2.0;
  cfg.max_retries = 2;
  World world(params, 20, options, /*latency_seed=*/42, cfg);

  FaultPlan plan(5);
  plan.set_for_type(MessageType::kJoinNotiRly,
                    {.drop = 1.0, .max_drops = 3});
  plan.attach(world.net.lane_transport(0));

  auto ids = make_ids(params, 17, 21);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 16);
  const NodeId joiner = ids.back();
  build_consistent_network(world.overlay, v);

  bool restarted = false;
  world.overlay.on_status_change = [&](const NodeId&, NodeStatus from,
                                       NodeStatus to, std::uint32_t) {
    if (from == NodeStatus::kNotifying && to == NodeStatus::kCopying)
      restarted = true;
  };
  std::size_t notis_before = 0;
  std::size_t notis_after = 0;
  std::size_t mismatches = 0;
  world.overlay.on_message = [&](const NodeId& from, const NodeId&,
                                 const MessageBody& body) {
    const auto* noti = std::get_if<JoinNotiMsg>(&body);
    if (noti == nullptr) return;
    ++(restarted ? notis_after : notis_before);
    if (noti->sender_noti_level != world.overlay.at(from).noti_level())
      ++mismatches;
  };

  world.schedule_join(joiner, v[0], 0.0);
  world.drain();

  EXPECT_TRUE(restarted);
  EXPECT_GT(notis_before, 0u);
  EXPECT_GT(notis_after, 0u);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(world.overlay.at(joiner).join_stats().watchdog_restarts, 1u);
  EXPECT_TRUE(world.overlay.all_in_system());
}

TEST(ReliableJoin, StaleReplyFromAbortedAttemptIsRejected) {
  // Delay the first JoinWaitRlyMsg — and every ARQ retransmission of it
  // (copies go out at T, T+500, T+1500, T+3500, T+7500 before the first
  // delayed arrival is acked; budget 6 leaves margin) — past the watchdog
  // deadline: the joiner restarts (generation 2) before any generation-1
  // reply arrives. The restarted attempt's reply is undelayed (budget
  // spent), so the join completes; the late generation-1 reply must be
  // rejected as stale — but its positive outcome (the replier stored the
  // joiner) must still register as a reverse neighbor, so the replier gets
  // its InSysNotiMsg.
  const IdParams params{4, 6};
  ProtocolOptions options;
  options.join_watchdog_ms = 10000.0;
  World world(params, 20, options);

  FaultPlan plan(6);
  plan.set_for_type(MessageType::kJoinWaitRly,
                    {.delay = 1.0, .extra_delay_ms = 12000.0, .max_delays = 6});
  plan.attach(world.net.lane_transport(0));

  auto ids = make_ids(params, 17, 23);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 16);
  const NodeId joiner = ids.back();
  build_consistent_network(world.overlay, v);

  world.schedule_join(joiner, v[0], 0.0);
  world.drain();

  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_EQ(world.overlay.at(joiner).join_stats().watchdog_restarts, 1u);
  EXPECT_GE(world.overlay.join_counters().stale_rejected, 1u);
  // Full audit: states must have reconciled too (the replier learned the
  // joiner switched, via the reverse-neighbor registration kept from the
  // stale positive).
  const auto report = testing::audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);
}

TEST(ReliableJoin, CleanNetworkHasExactlyZeroRobustnessOverhead) {
  // Acceptance criterion: with no faults injected, the reliable layer must
  // be invisible — zero retransmissions, zero duplicate suppressions, zero
  // give-ups, zero watchdog restarts, and the wire carries exactly one
  // RelAckMsg per tracked data message.
  const IdParams params{4, 6};
  ProtocolOptions options;
  options.join_watchdog_ms = 60000.0;
  World world(params, 80, options);

  auto ids = make_ids(params, 80, 31);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 64);
  const std::vector<NodeId> w(ids.begin() + 64, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(31);
  join_concurrently(world, w, v, rng, /*window_ms=*/500.0);

  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(testing::audit(world.overlay).consistent());
  EXPECT_EQ(world.net.rel_stats().retransmits, 0u);
  EXPECT_EQ(world.net.rel_stats().dup_suppressed, 0u);
  EXPECT_EQ(world.net.rel_stats().give_ups, 0u);
  EXPECT_EQ(world.net.rel_in_flight(), 0u);
  // One RelAckMsg on the wire per tracked data message: the lane's wire
  // count is the data messages plus their acks, and nothing else.
  const std::uint64_t tracked = world.net.rel_stats().tracked_sent;
  EXPECT_EQ(world.net.rel_stats().acks_sent, tracked);
  EXPECT_EQ(world.net.lane_transport(0).messages_sent(), 2 * tracked);
  for (const NodeId& x : w)
    EXPECT_EQ(world.overlay.at(x).join_stats().watchdog_restarts, 0u);
  EXPECT_EQ(world.overlay.join_counters().stale_rejected, 0u);
}

}  // namespace
}  // namespace hcube
