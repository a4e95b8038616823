// A Node holds only its per-node protocol state: table (whose header holds
// the id), status, host, generations and the paper's per-join numbers.
// Each protocol keeps the state of a conversation in a struct the node
// creates on protocol entry and drops when the protocol finishes (switch to
// S-node, departure, repair round idle) or the node restarts. These tests
// pin the size budget, the edge cases where a message arrives after its
// conversation is gone, and the release paths.
#include <gtest/gtest.h>

#include <optional>
#include <variant>

#include "test_util.h"

namespace hcube {
namespace {

using testing::make_ids;
using testing::World;

TEST(NodeState, SizeOfNodeStaysWithinBudget) {
  // The overlay handle 8, the table header 152, JoinStats 40, host,
  // status, started flag and generations 16, one conversation pointer per
  // protocol 24, and the leave epoch and ping generation 16. No member
  // refers to another part of the node.
  EXPECT_LE(sizeof(Node), 256u);
}

TEST(NodeStateDeathTest, JoinStatsCountsOnlyBigRequests) {
  // A node keeps per-join counts of the three big requests alone; any
  // other type's count lives in the overlay (totals(), on_message).
  const JoinStats stats;
  EXPECT_EQ(stats.sent_of(MessageType::kCpRst), 0u);
  EXPECT_EQ(stats.sent_of(MessageType::kJoinWait), 0u);
  EXPECT_EQ(stats.sent_of(MessageType::kJoinNoti), 0u);
  EXPECT_DEATH(stats.sent_of(MessageType::kSpeNoti), "big requests");
  EXPECT_DEATH(stats.sent_of(MessageType::kCpRly), "big requests");
}

TEST(NodeState, LateJoinNotiReplyAfterSettleIsAbsorbed) {
  // The reply janitor evicts a peer whose JoinNotiRlyMsg is late, and the
  // joiner settles without it. When the reply does arrive it carries the
  // current generation, finds no conversation, and is absorbed like any
  // late reply: the replier is registered as a reverse neighbor.
  const IdParams params{4, 5};
  ProtocolOptions options;
  options.reply_timeout_ms = 300.0;  // above the 240 ms worst round trip
  World world(params, 40, options);
  const auto ids = make_ids(params, 33, 41);
  const std::vector<NodeId> seeds(ids.begin(), ids.begin() + 32);
  build_consistent_network(world.overlay, seeds);
  const NodeId& joiner = ids[32];

  std::optional<Message> held;
  HostId held_from = kNoHost;
  world.overlay.delivery_interceptor = [&](Node& node, HostId from,
                                           const Message& msg) {
    const auto* reply = std::get_if<JoinNotiRlyMsg>(&msg.body);
    if (held || node.id() != joiner || reply == nullptr || !reply->positive)
      return false;
    held = msg;
    held_from = from;
    return true;
  };
  world.schedule_join(joiner, seeds[0], 0.0);
  world.drain();
  world.overlay.delivery_interceptor = nullptr;

  ASSERT_TRUE(held.has_value());
  Node& x = world.overlay.at(joiner);
  ASSERT_TRUE(x.is_s_node());
  ASSERT_TRUE(x.join_idle());
  EXPECT_GE(world.overlay.join_counters().suspected_peers, 1u);

  // Make the late reply the only source of the registration.
  const NodeId y = held->sender;
  x.drop_reverse_neighbor(y);
  x.handle(held_from, *held);
  world.drain();

  EXPECT_TRUE(x.table().reverse_neighbors().contains(y));
  EXPECT_TRUE(x.is_s_node());
  EXPECT_TRUE(x.join_idle());
  EXPECT_EQ(world.overlay.join_counters().stale_rejected, 0u);
  EXPECT_EQ(world.overlay.conformance().total_rejected(), 0u);
}

TEST(NodeState, JoinWaitAtLeavingNodeIsDeferred) {
  // Figure 6: a node that is not an S-node defers a JoinWaitMsg into Q_j.
  // A leaving node never switches back, so the request stays deferred and
  // is never answered.
  const IdParams params{4, 5};
  World world(params, 16);
  const auto ids = make_ids(params, 12, 43);
  build_consistent_network(world.overlay, ids);
  Node& leaver = world.overlay.at(ids[0]);
  std::size_t wait_replies = 0;
  world.overlay.on_message = [&](const NodeId& from, const NodeId&,
                                 const MessageBody& body) {
    if (from == ids[0] && std::holds_alternative<JoinWaitRlyMsg>(body))
      ++wait_replies;
  };

  leaver.start_leave();
  ASSERT_EQ(leaver.status(), NodeStatus::kLeaving);
  ASSERT_TRUE(leaver.join_idle());
  leaver.handle(world.overlay.host_of(ids[1]),
                Message{ids[1], JoinWaitMsg{}, 0, 1});
  EXPECT_FALSE(leaver.join_idle());  // the waiter sits in Q_j
  world.drain();

  EXPECT_TRUE(leaver.has_departed());
  EXPECT_EQ(wait_replies, 0u);
  EXPECT_EQ(world.overlay.conformance().total_rejected(), 0u);
}

TEST(NodeState, RestartMidLeaveDropsTheDeparture) {
  const IdParams params{16, 8};
  World world(params, 16);
  const auto ids = make_ids(params, 16, 45);
  build_consistent_network(world.overlay, ids);
  Node& node = world.overlay.at(ids[3]);

  node.start_leave();
  ASSERT_TRUE(node.leave_in_progress());  // every LeaveRly still in flight
  world.crash(ids[3]);
  world.restart(ids[3], ids[0]);
  EXPECT_FALSE(node.leave_in_progress());
  world.drain();  // the old incarnation's acks meet the rejoin

  EXPECT_TRUE(node.is_s_node());
  EXPECT_TRUE(node.join_idle());
  EXPECT_FALSE(node.leave_in_progress());
  EXPECT_FALSE(node.repair_in_progress());
}

TEST(NodeState, RestartMidRepairDropsTheRound) {
  const IdParams params{16, 8};
  World world(params, 16);
  const auto ids = make_ids(params, 16, 47);
  build_consistent_network(world.overlay, ids);
  Node& node = world.overlay.at(ids[3]);

  node.start_repair(200.0);
  ASSERT_TRUE(node.repair_in_progress());  // every probe unanswered
  world.crash(ids[3]);
  world.restart(ids[3], ids[0]);
  EXPECT_FALSE(node.repair_in_progress());
  world.drain();  // the dropped round's ping timeouts fire inert

  EXPECT_TRUE(node.is_s_node());
  EXPECT_TRUE(node.join_idle());
  EXPECT_FALSE(node.leave_in_progress());
  EXPECT_FALSE(node.repair_in_progress());
}

TEST(NodeState, FinishedProtocolsHoldNoConversation) {
  // The release paths: a join drops its conversation at the switch to
  // S-node, a repair round as soon as nothing is outstanding, a leave at
  // departure.
  const IdParams params{4, 5};
  ProtocolOptions options;
  options.validate_repair_candidates = true;  // pings candidates too
  World world(params, 40, options);
  const auto ids = make_ids(params, 36, 41);
  const std::vector<NodeId> seeds(ids.begin(), ids.begin() + 32);
  build_consistent_network(world.overlay, seeds);
  for (int k = 0; k < 4; ++k)
    world.schedule_join(ids[32 + k], seeds[k], 10.0 * k);
  world.drain();
  ASSERT_TRUE(world.overlay.all_in_system());

  world.crash(ids[5]);
  EXPECT_GT(world.repair_all(), 0u);
  world.overlay.at(ids[7]).start_leave();
  world.drain();

  for (const auto& node : world.overlay.nodes()) {
    if (node->is_crashed()) continue;
    EXPECT_TRUE(node->join_idle());
    EXPECT_FALSE(node->repair_in_progress());
    EXPECT_FALSE(node->leave_in_progress());
  }
  EXPECT_TRUE(world.overlay.at(ids[7]).has_departed());
}

}  // namespace
}  // namespace hcube
