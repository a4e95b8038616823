// Cross-cutting protocol properties: monotone reachability, entry
// immutability, status transitions, the paper's assumptions as guard rails,
// and failure injection (the checker must detect damage from lost messages,
// since the protocol itself assumes reliable delivery).
#include <gtest/gtest.h>

#include <map>

#include "core/cset_tree.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::audit;
using testing::make_ids;

TEST(ProtocolInvariants, EntriesNeverChangeOnceFilledDuringJoins) {
  // "Nodes in V will fill x into a table entry only if that entry is empty"
  // (Section 3.2). We watch every message and snapshot entries of existing
  // nodes after quiescence-at-each-step, checking the filled set only grows
  // and never rebinds.
  const IdParams params{4, 6};
  World world(params, 80);
  auto ids = make_ids(params, 70, 66);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 35);
  const std::vector<NodeId> w(ids.begin() + 35, ids.end());
  build_consistent_network(world.overlay, v);

  Rng rng(1);
  for (const NodeId& id : w)
    world.overlay.add_node(id).start_join(v[rng.next_below(v.size())]);
  // Run in small bursts; after each burst verify no existing V entry lost
  // or changed its occupant.
  std::map<std::tuple<NodeId, std::uint32_t, std::uint32_t>, NodeId> seen;
  auto scan = [&]() {
    for (const auto& node : world.overlay.nodes()) {
      node->table().for_each_filled([&](std::uint32_t i, std::uint32_t j,
                                        const NodeId& n, NeighborState) {
        // Own-digit entries are legitimately rebound once: at the end of the
        // copying phase x installs itself as its own (i, x[i])-neighbor
        // (Section 2.2), replacing whatever was copied there.
        if (j == node->id().digit(i)) return;
        auto key = std::make_tuple(node->id(), i, j);
        auto it = seen.find(key);
        if (it == seen.end()) {
          seen.emplace(key, n);
        } else {
          EXPECT_EQ(it->second, n)
              << "entry (" << i << "," << j << ") of "
              << node->id().to_string(params) << " was rebound";
        }
      });
    }
  };
  scan();
  while (world.net.lane_queue(0).run(50) > 0) scan();
  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(audit(world.overlay).consistent());
}

TEST(ProtocolInvariants, ReachabilityIsMonotone) {
  // "Our join protocol is designed to expand the network monotonically and
  // preserve reachability of existing nodes" — once a pair of S-nodes can
  // reach each other, they always can.
  const IdParams params{4, 5};
  World world(params, 48);
  auto ids = make_ids(params, 40, 91);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 20);
  const std::vector<NodeId> w(ids.begin() + 20, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(3);
  for (const NodeId& id : w)
    world.overlay.add_node(id).start_join(v[rng.next_below(v.size())]);

  std::set<std::pair<NodeId, NodeId>> reachable_pairs;
  auto scan = [&]() {
    const NetworkView net = view_of(world.overlay);
    // Previously reachable pairs must stay reachable.
    for (const auto& [a, b] : reachable_pairs)
      EXPECT_TRUE(reachable(net, a, b))
          << a.to_string(params) << " lost " << b.to_string(params);
    // Record newly reachable pairs among a sample.
    for (std::size_t i = 0; i < ids.size(); i += 3)
      for (std::size_t j = 0; j < ids.size(); j += 5) {
        if (i == j) continue;
        if (!world.overlay.find(ids[i]) || !world.overlay.find(ids[j]))
          continue;
        if (reachable(net, ids[i], ids[j]))
          reachable_pairs.insert({ids[i], ids[j]});
      }
  };
  scan();
  while (world.net.lane_queue(0).run(120) > 0) scan();
  EXPECT_TRUE(world.overlay.all_in_system());
}

TEST(ProtocolInvariants, StatusNeverRegresses) {
  const IdParams params{4, 5};
  World world(params, 40);
  auto ids = make_ids(params, 30, 17);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 15);
  const std::vector<NodeId> w(ids.begin() + 15, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(9);
  for (const NodeId& id : w)
    world.overlay.add_node(id).start_join(v[rng.next_below(v.size())]);

  std::map<NodeId, NodeStatus> last;
  while (world.net.lane_queue(0).run(25) > 0) {
    for (const auto& node : world.overlay.nodes()) {
      auto it = last.find(node->id());
      if (it != last.end()) {
        EXPECT_GE(static_cast<int>(node->status()),
                  static_cast<int>(it->second))
            << node->id().to_string(params) << " regressed";
      }
      last[node->id()] = node->status();
    }
  }
  EXPECT_TRUE(world.overlay.all_in_system());
}

TEST(ProtocolInvariants, JoiningPeriodsAreRecorded) {
  const IdParams params{4, 5};
  World world(params, 24);
  auto ids = make_ids(params, 20, 53);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 10);
  const std::vector<NodeId> w(ids.begin() + 10, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(5);
  join_concurrently(world, w, v, rng, /*window_ms=*/100.0);
  ASSERT_TRUE(world.overlay.all_in_system());
  for (const NodeId& x : w) {
    const JoinStats& s = world.overlay.at(x).join_stats();
    EXPECT_GE(s.t_begin, 0.0);
    EXPECT_GT(s.t_end, s.t_begin);  // a join takes at least one round trip
  }
}

TEST(ProtocolInvariants, BigMessagesHaveMatchingReplies) {
  // "For each message of type CpRstMsg, JoinWaitMsg, or JoinNotiMsg, there
  // is one and only one corresponding reply" (Section 5.2).
  const IdParams params{4, 6};
  World world(params, 60);
  auto ids = make_ids(params, 50, 29);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 25);
  const std::vector<NodeId> w(ids.begin() + 25, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(8);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());

  const auto& totals = world.overlay.totals();
  auto count = [&](MessageType t) {
    return totals.sent[static_cast<std::size_t>(t)];
  };
  EXPECT_EQ(count(MessageType::kCpRst), count(MessageType::kCpRly));
  EXPECT_EQ(count(MessageType::kJoinWait), count(MessageType::kJoinWaitRly));
  EXPECT_EQ(count(MessageType::kJoinNoti), count(MessageType::kJoinNotiRly));
  EXPECT_EQ(count(MessageType::kSpeNoti) > 0,
            count(MessageType::kSpeNotiRly) > 0);
  // SpeNotiMsg may be forwarded, so sends >= replies; every chain ends in
  // exactly one reply.
  EXPECT_GE(count(MessageType::kSpeNoti), count(MessageType::kSpeNotiRly));
}

TEST(FailureInjection, DroppedRepliesStallJoins) {
  // The protocol assumes reliable delivery (assumption (iii) in Section
  // 3.1). A seeded drop filter on the overlay loses 20% of JoinNotiRlyMsg
  // traffic above the ARQ layer (a filtered message is never sent, so
  // nothing retransmits it): affected joiners wait in Q_r forever and
  // never become S-nodes — exactly the failure mode the assumption exists
  // to exclude, and the one reliable_join_test.cpp shows the ARQ layer
  // healing.
  const IdParams params{2, 8};
  World world(params, 50);
  auto ids = make_ids(params, 40, 3);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 20);
  const std::vector<NodeId> w(ids.begin() + 20, ids.end());
  build_consistent_network(world.overlay, v);

  Rng loss(12);
  std::uint64_t dropped = 0;
  world.overlay.set_drop_filter(
      [&](const NodeId&, const NodeId&, const MessageBody& body) {
        if (type_of(body) != MessageType::kJoinNotiRly || !loss.next_bool(0.2))
          return false;
        ++dropped;
        return true;
      });

  Rng rng(12);
  join_concurrently(world, w, v, rng);
  ASSERT_GT(dropped, 0u);
  // The event queue drained (quiescence) yet joins did not complete: a
  // joiner whose reply was lost waits forever.
  EXPECT_TRUE(world.net.lane_queue(0).empty());
  EXPECT_FALSE(world.overlay.all_in_system());
}

TEST(FailureInjection, DroppedJoinWaitStallsInWaiting) {
  const IdParams params{4, 6};
  World world(params, 24);
  auto ids = make_ids(params, 21, 9);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 20);
  const NodeId joiner = ids.back();
  build_consistent_network(world.overlay, v);

  world.overlay.set_drop_filter(
      [](const NodeId&, const NodeId&, const MessageBody& body) {
        return type_of(body) == MessageType::kJoinWait;
      });
  world.schedule_join(joiner, v[0], 0.0);
  world.drain();
  EXPECT_EQ(world.overlay.at(joiner).status(), NodeStatus::kWaiting);

  // Clearing the filter and replaying the join is not part of the protocol;
  // just confirm the rest of the network was not corrupted.
  NetworkView view(params);
  for (const auto& node : world.overlay.nodes())
    if (node->id() != joiner) view.add(&node->table());
  EXPECT_TRUE(check_consistency(view).consistent());
}

}  // namespace
}  // namespace hcube
