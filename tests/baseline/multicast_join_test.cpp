// The multicast-join baseline: correctness (it must keep the network
// consistent) and the state/message asymmetry the paper claims against it.
#include "baseline/multicast_join.h"

#include <gtest/gtest.h>

#include "core/builder.h"
#include "core/consistency.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::make_ids;

TEST(MulticastJoin, NetworkStaysConsistentAcrossJoins) {
  const IdParams params{4, 6};
  auto ids = make_ids(params, 80, 11);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 40);
  MulticastNetwork net(params, v);
  ASSERT_TRUE(check_consistency(net.view()).consistent());

  Rng rng(3);
  for (std::size_t i = 40; i < ids.size(); ++i) {
    net.join(ids[i], ids[rng.next_below(i)]);
    const auto report = check_consistency(net.view());
    ASSERT_TRUE(report.consistent())
        << "after join " << i << "\n"
        << report.summary(params);
  }
}

TEST(MulticastJoin, NotificationSetIsUpdated) {
  const IdParams params{2, 8};
  auto ids = make_ids(params, 40, 5);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 39);
  const NodeId joiner = ids.back();

  SuffixTrie trie(params);
  for (const auto& id : v) trie.insert(id);
  const std::size_t k = trie.notify_suffix_len(joiner);
  const auto noti_set = trie.all_with_suffix(joiner.suffix_of_len(k));

  MulticastNetwork net(params, v);
  const auto metrics = net.join(joiner, v[0]);
  EXPECT_EQ(metrics.existing_nodes_touched, noti_set.size());

  const NetworkView view = net.view();
  for (const NodeId& u : noti_set) {
    const NeighborTable* t = view.find(u);
    ASSERT_NE(t, nullptr);
    EXPECT_TRUE(t->holds(static_cast<std::uint32_t>(k), joiner.digit(k),
                         joiner));
  }
}

TEST(MulticastJoin, ExistingNodesCarryPendingState) {
  // The paper's critique: with multicast joins, existing nodes hold
  // per-join state. Use b = 2 so notification sets are large.
  const IdParams params{2, 10};
  auto ids = make_ids(params, 200, 7);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 190);
  MulticastNetwork net(params, v);

  Rng rng(1);
  std::uint64_t total_pending = 0;
  for (std::size_t i = 190; i < ids.size(); ++i) {
    const auto m = net.join(ids[i], v[rng.next_below(v.size())]);
    total_pending += m.existing_nodes_with_pending_state;
    EXPECT_EQ(m.announce_messages, m.ack_messages);
    EXPECT_GE(m.existing_nodes_touched, 1u);
  }
  EXPECT_GT(total_pending, 0u);
}

TEST(MulticastJoin, PrimaryProtocolKeepsExistingNodesStateless) {
  // The contrast experiment (E6): under the paper's protocol, existing
  // S-nodes never enter a join-pending state — Q_j and friends only exist
  // at T-nodes. We verify structurally: after a join wave, every V-node's
  // join bookkeeping was never used (its JoinStats show no CpRst/JoinWait
  // SENT, the signature of join-state activity).
  const IdParams params{2, 10};
  World world(params, 64);
  auto ids = make_ids(params, 60, 13);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 40);
  const std::vector<NodeId> w(ids.begin() + 40, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(2);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());
  for (const NodeId& u : v) {
    const JoinStats& s = world.overlay.at(u).join_stats();
    EXPECT_EQ(s.sent_of(MessageType::kCpRst), 0u);
    EXPECT_EQ(s.sent_of(MessageType::kJoinWait), 0u);
    EXPECT_EQ(s.sent_of(MessageType::kJoinNoti), 0u);
  }
}

TEST(MulticastJoin, RejectsDuplicateAndUnknownGateway) {
  const IdParams params{4, 4};
  auto ids = make_ids(params, 10, 3);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 8);
  MulticastNetwork net(params, v);
  EXPECT_DEATH(net.join(v[0], v[1]), "already a member");
  EXPECT_DEATH(net.join(ids[8], ids[9]), "gateway");
}

TEST(MulticastJoin, RouteHopsBounded) {
  const IdParams params{4, 6};
  auto ids = make_ids(params, 101, 19);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 100);
  MulticastNetwork net(params, v);
  const auto m = net.join(ids.back(), v[0]);
  EXPECT_LE(m.route_hops, params.num_digits);
}

}  // namespace
}  // namespace hcube
