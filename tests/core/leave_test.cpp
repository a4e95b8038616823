// The leave protocol (this library's extension of the paper's framework;
// the paper defers leaving to future work). The invariant under test is the
// same Definition 3.8 consistency, now over the *remaining* membership:
// after a graceful leave every entry that can be filled is filled with a
// live node, every entry whose class emptied is null, and no table or
// reverse-neighbor set references the departed node.
#include <gtest/gtest.h>

#include <variant>

#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::audit;
using testing::make_ids;

void expect_no_trace_of(const Overlay& overlay, const NodeId& gone) {
  for (const auto& node : overlay.nodes()) {
    if (node->has_departed()) continue;
    node->table().for_each_filled([&](std::uint32_t i, std::uint32_t j,
                                      const NodeId& n, NeighborState) {
      EXPECT_NE(n, gone) << "entry (" << i << "," << j << ") of "
                         << node->id().to_string(overlay.params())
                         << " still points at the departed node";
    });
    EXPECT_FALSE(node->table().reverse_neighbors().contains(gone))
        << node->id().to_string(overlay.params())
        << " still tracks the departed node as a reverse neighbor";
  }
}

TEST(Leave, SingleLeaveKeepsNetworkConsistent) {
  const IdParams params{4, 6};
  World world(params, 50);
  auto ids = make_ids(params, 50, 3);
  build_consistent_network(world.overlay, ids);

  leave_and_drain(world, ids[7]);

  EXPECT_TRUE(world.overlay.at(ids[7]).has_departed());
  EXPECT_EQ(world.overlay.live_size(), 49u);
  expect_no_trace_of(world.overlay, ids[7]);
  const auto report = audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);
}

TEST(Leave, LastOfClassNullsEntries) {
  // Craft a network where exactly one node has a given rightmost digit; its
  // departure must leave every (0, digit) entry null (false-positive-free).
  const IdParams params{4, 5};
  UniqueIdGenerator gen(params, 9);
  std::vector<NodeId> ids;
  NodeId loner;
  while (ids.size() < 30) {
    NodeId id = gen.next();
    if (id.digit(0) == 3) {
      if (!loner.is_valid()) {
        loner = id;
        ids.push_back(id);
      }
      continue;  // only one node ending in 3
    }
    ids.push_back(id);
  }
  ASSERT_TRUE(loner.is_valid());

  World world(params, 32);
  build_consistent_network(world.overlay, ids);
  leave_and_drain(world, loner);

  ASSERT_TRUE(world.overlay.at(loner).has_departed());
  for (const auto& node : world.overlay.nodes()) {
    if (node->has_departed()) continue;
    EXPECT_TRUE(node->table().is_empty(0, 3));
  }
  EXPECT_TRUE(audit(world.overlay).consistent());
}

TEST(Leave, SequentialLeavesDownToOneNode) {
  const IdParams params{4, 5};
  World world(params, 24);
  auto ids = make_ids(params, 24, 11);
  build_consistent_network(world.overlay, ids);

  for (std::size_t i = 0; i + 1 < ids.size(); ++i) {
    leave_and_drain(world, ids[i]);
    ASSERT_TRUE(world.overlay.at(ids[i]).has_departed());
    const auto report = audit(world.overlay);
    ASSERT_TRUE(report.consistent())
        << "after leave " << i << ": " << report.summary(params);
  }
  EXPECT_EQ(world.overlay.live_size(), 1u);
}

TEST(Leave, LeaveThenJoinReusesTheGap) {
  // Churn cycle: a node leaves, a different node with the same notification
  // neighborhood joins; the network must be consistent throughout.
  const IdParams params{4, 6};
  World world(params, 64);
  auto ids = make_ids(params, 45, 17);
  const std::vector<NodeId> members(ids.begin(), ids.begin() + 40);
  build_consistent_network(world.overlay, members);

  Rng rng(5);
  for (std::size_t i = 0; i < 5; ++i) {
    leave_and_drain(world, members[i * 3]);
    ASSERT_TRUE(audit(world.overlay).consistent());

    // A fresh node joins via a random live member.
    const NodeId& newcomer = ids[40 + i];
    NodeId gateway;
    for (const auto& node : world.overlay.nodes()) {
      if (!node->has_departed() && node->is_s_node()) {
        gateway = node->id();
        break;
      }
    }
    world.schedule_join(newcomer, gateway, world.now());
    world.drain();
    ASSERT_TRUE(world.overlay.at(newcomer).is_s_node());
    const auto report = audit(world.overlay);
    ASSERT_TRUE(report.consistent())
        << "cycle " << i << ": " << report.summary(params);
  }
}

TEST(Leave, TwoNodeNetworkCollapsesGracefully) {
  const IdParams params{4, 4};
  World world(params, 4);
  auto ids = make_ids(params, 2, 21);
  build_consistent_network(world.overlay, ids);

  leave_and_drain(world, ids[0]);
  EXPECT_TRUE(world.overlay.at(ids[0]).has_departed());
  EXPECT_TRUE(audit(world.overlay).consistent());
  // The survivor's table holds only itself.
  const NeighborTable& t = world.overlay.at(ids[1]).table();
  t.for_each_filled([&](std::uint32_t, std::uint32_t, const NodeId& n,
                        NeighborState) { EXPECT_EQ(n, ids[1]); });
}

TEST(Leave, ConcurrentLeavesInDisjointClasses) {
  // Two nodes leave at the same instant. Their suffix neighborhoods are
  // disjoint (no shared digits at level 0), and — to stay within the
  // supported regime — neither may serve as the other's repair candidate.
  const IdParams params{8, 5};
  UniqueIdGenerator gen(params, 31);
  std::vector<NodeId> ids;
  NodeId a, b;
  while (ids.size() < 40) {
    NodeId id = gen.next();
    if (!a.is_valid() && id.digit(0) == 1) a = id;
    else if (!b.is_valid() && id.digit(0) == 5) b = id;
    ids.push_back(id);
  }
  ASSERT_TRUE(a.is_valid() && b.is_valid());

  World world(params, 48);
  build_consistent_network(world.overlay, ids);
  Node* na = &world.overlay.at(a);
  Node* nb = &world.overlay.at(b);
  world.net.driver().schedule_action(0.0, [na] { na->start_leave(); });
  world.net.driver().schedule_action(0.0, [nb] { nb->start_leave(); });
  world.drain();

  EXPECT_TRUE(na->has_departed());
  EXPECT_TRUE(nb->has_departed());
  const auto report = audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);
  expect_no_trace_of(world.overlay, a);
  expect_no_trace_of(world.overlay, b);
}

TEST(Leave, RoutingWorksAfterLeaves) {
  const IdParams params{4, 6};
  World world(params, 60);
  auto ids = make_ids(params, 60, 41);
  build_consistent_network(world.overlay, ids);
  for (std::size_t i = 0; i < 12; ++i) {
    leave_and_drain(world, ids[i * 4]);
  }
  const NetworkView net = view_of(world.overlay);
  EXPECT_EQ(net.size(), 48u);
  Rng rng(2);
  EXPECT_EQ(check_reachability_sample(net, 10000, rng), 0u);
}

TEST(Leave, OnlySNodesMayLeave) {
  const IdParams params{4, 4};
  World world(params, 8);
  auto ids = make_ids(params, 3, 51);
  build_consistent_network(world.overlay, {ids[0], ids[1]});
  Node& joiner = world.schedule_join(ids[2], ids[0], 10.0);
  // Before the join even starts, the node is a T-node in status copying.
  EXPECT_DEATH(joiner.start_leave(), "S-node");
}

TEST(Leave, EveryLeaveMsgIsAcked) {
  const IdParams params{4, 5};
  World world(params, 24);
  auto ids = make_ids(params, 24, 61);
  build_consistent_network(world.overlay, ids);
  std::uint64_t leaves = 0, acks = 0;
  world.overlay.on_message = [&](const NodeId& from, const NodeId& to,
                                 const MessageBody& body) {
    if (from == ids[0] && std::holds_alternative<LeaveMsg>(body)) ++leaves;
    if (to == ids[0] && std::holds_alternative<LeaveRlyMsg>(body)) ++acks;
  };
  leave_and_drain(world, ids[0]);
  EXPECT_GT(leaves, 0u);
  // One ack per LeaveMsg.
  EXPECT_EQ(acks, leaves);
}

}  // namespace
}  // namespace hcube
