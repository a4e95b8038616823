// Single-join behaviour: Figure 5's copy chain, Lemma 5.1 consistency, and
// Theorem 3's message bound for one joiner at a time.
#include <gtest/gtest.h>

#include "analysis/join_cost.h"
#include "core/cset_tree.h"
#include "ids/suffix_trie.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::audit;
using testing::make_ids;

TEST(JoinSingle, JoinIntoSeedOnlyNetwork) {
  const IdParams params{4, 6};
  World world(params, 8);
  auto ids = make_ids(params, 2, /*seed=*/1);
  world.overlay.add_node(ids[0]).become_seed();

  world.schedule_join(ids[1], ids[0], 0.0);
  world.drain();

  EXPECT_TRUE(world.overlay.all_in_system());
  const auto report = audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);
}

TEST(JoinSingle, JoinIntoBuiltNetworkIsConsistent) {
  const IdParams params{4, 6};
  World world(params, 64);
  auto ids = make_ids(params, 41, /*seed=*/7);
  const NodeId joiner = ids.back();
  ids.pop_back();
  build_consistent_network(world.overlay, ids);
  ASSERT_TRUE(audit(world.overlay).consistent());

  world.schedule_join(joiner, ids[3], 0.0);
  world.drain();

  EXPECT_TRUE(world.overlay.all_in_system());
  const auto report = audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);
}

TEST(JoinSingle, Theorem3BoundHolds) {
  const IdParams params{4, 6};
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    World world(params, 64, {}, seed);
    auto ids = make_ids(params, 50, seed);
    const NodeId joiner = ids.back();
    ids.pop_back();
    build_consistent_network(world.overlay, ids);
    world.schedule_join(joiner, ids[seed % ids.size()], 0.0);
    world.drain();

    const JoinStats& stats = world.overlay.at(joiner).join_stats();
    EXPECT_LE(stats.copy_plus_wait(), theorem3_bound(params));
    EXPECT_TRUE(audit(world.overlay).consistent());
  }
}

TEST(JoinSingle, JoinerNotifiesEntireNotificationSet) {
  // After a single join, every node in V that shares the joiner's
  // notification suffix must have been told about it: Definition 3.4 +
  // Section 3.2 ("nodes in V_{x[k-1..0]} need to be notified").
  const IdParams params{2, 8};  // binary digits force suffix collisions
  World world(params, 64);
  auto ids = make_ids(params, 33, /*seed=*/23);
  const NodeId joiner = ids.back();
  ids.pop_back();
  build_consistent_network(world.overlay, ids);

  SuffixTrie v_trie(params);
  for (const NodeId& id : ids) v_trie.insert(id);
  const std::size_t k = v_trie.notify_suffix_len(joiner);
  const auto noti_set = v_trie.all_with_suffix(joiner.suffix_of_len(k));
  ASSERT_FALSE(noti_set.empty());

  world.schedule_join(joiner, ids[0], 0.0);
  world.drain();

  EXPECT_EQ(world.overlay.at(joiner).noti_level(), k);
  for (const NodeId& v : noti_set) {
    const NeighborTable& t = world.overlay.at(v).table();
    EXPECT_TRUE(t.holds(static_cast<std::uint32_t>(k), joiner.digit(k),
                        joiner))
        << "node " << v.to_string(params) << " was not updated";
  }
}

TEST(JoinSingle, SequentialJoinsStayConsistentAtEveryStep) {
  const IdParams params{4, 5};
  World world(params, 64);
  auto ids = make_ids(params, 40, /*seed=*/99);
  world.overlay.add_node(ids[0]).become_seed();

  Rng rng(5);
  std::vector<NodeId> members{ids[0]};
  for (std::size_t i = 1; i < ids.size(); ++i) {
    const NodeId gw = members[rng.next_below(members.size())];
    world.schedule_join(ids[i], gw, world.now());
    world.drain();
    members.push_back(ids[i]);
    const auto report = audit(world.overlay);
    ASSERT_TRUE(report.consistent())
        << "after join " << i << ": " << report.summary(params);
  }
  EXPECT_TRUE(world.overlay.all_in_system());
}

TEST(JoinSingle, ReachabilityAfterJoins) {
  const IdParams params{4, 5};
  World world(params, 48);
  auto ids = make_ids(params, 30, /*seed=*/3);
  Rng rng(17);
  initialize_network(world, ids, rng, /*concurrent=*/false);

  const NetworkView net = view_of(world.overlay);
  Rng sample_rng(1);
  EXPECT_EQ(check_reachability_sample(net, 5000, sample_rng), 0u);
}

}  // namespace
}  // namespace hcube
