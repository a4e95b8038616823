// Failure recovery (extension): fail-stop crashes, ping-timeout detection,
// pull-based entry repair. The oracle is the same Definition 3.8 checker,
// now over the surviving membership.
//
// Ping timeouts must exceed the worst round trip of the latency model; the
// test World uses synthetic latencies in [5, 120] ms, so 500 ms is safe.
#include <gtest/gtest.h>

#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::make_ids;

constexpr SimTime kPingTimeout = 500.0;

TEST(Recovery, SingleCrashRepairedWithinTwoRounds) {
  // One pull+push round clears every dead pointer; a second round lets
  // rediscovered members propagate one more announce hop (a member whose
  // only inbound pointer died may not know the hole's owner directly).
  const IdParams params{4, 6};
  World world(params, 60);
  auto ids = make_ids(params, 60, 5);
  build_consistent_network(world.overlay, ids);

  world.crash(ids[11]);
  const auto queries = world.repair_all(kPingTimeout, /*rounds=*/2);
  EXPECT_GT(queries, 0u);

  const auto report = check_consistency(view_of(world.overlay));
  EXPECT_TRUE(report.consistent()) << report.summary(params);
  // Nobody references the crashed node anymore.
  for (const auto& node : world.overlay.nodes()) {
    if (node->is_crashed()) continue;
    node->table().for_each_filled([&](std::uint32_t, std::uint32_t,
                                      const NodeId& n, NeighborState) {
      EXPECT_NE(n, ids[11]);
    });
    EXPECT_FALSE(node->table().reverse_neighbors().contains(ids[11]));
  }
}

TEST(Recovery, LastOfClassCrashNullsEntries) {
  // If the crashed node was the only member of a class, repair must
  // conclude "empty" rather than invent a neighbor.
  const IdParams params{4, 5};
  UniqueIdGenerator gen(params, 9);
  std::vector<NodeId> ids;
  NodeId loner;
  while (ids.size() < 25) {
    NodeId id = gen.next();
    if (id.digit(0) == 1) {
      if (loner.is_valid()) continue;
      loner = id;
    }
    ids.push_back(id);
  }
  ASSERT_TRUE(loner.is_valid());
  World world(params, 32);
  build_consistent_network(world.overlay, ids);

  world.crash(loner);
  world.repair_all(kPingTimeout, 1);

  for (const auto& node : world.overlay.nodes()) {
    if (node->is_crashed()) continue;
    EXPECT_TRUE(node->table().is_empty(0, 1));
  }
  EXPECT_TRUE(check_consistency(view_of(world.overlay)).consistent());
}

TEST(Recovery, MultipleScatteredCrashes) {
  const IdParams params{4, 6};
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    World world(params, 100, {}, seed);
    auto ids = make_ids(params, 100, seed * 7);
    build_consistent_network(world.overlay, ids);

    Rng rng(seed);
    for (int i = 0; i < 10; ++i)
      world.crash(ids[rng.next_below(ids.size())]);
    world.repair_all(kPingTimeout, /*rounds=*/3);

    const auto report = check_consistency(view_of(world.overlay));
    EXPECT_TRUE(report.consistent())
        << "seed " << seed << "\n"
        << report.summary(params);
    EXPECT_GE(world.overlay.live_size(), 90u);
  }
}

TEST(Recovery, RoutingRestoredAfterRepair) {
  const IdParams params{4, 6};
  World world(params, 80);
  auto ids = make_ids(params, 80, 13);
  build_consistent_network(world.overlay, ids);
  Rng rng(4);
  for (int i = 0; i < 8; ++i)
    world.crash(ids[rng.next_below(ids.size())]);
  world.repair_all(kPingTimeout, 3);

  const NetworkView net = view_of(world.overlay);
  Rng sample(1);
  EXPECT_EQ(check_reachability_sample(net, 20000, sample), 0u);
}

TEST(Recovery, JoinsWorkAfterRecovery) {
  const IdParams params{4, 6};
  World world(params, 80);
  auto ids = make_ids(params, 70, 21);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 60);
  build_consistent_network(world.overlay, v);
  world.crash(v[5]);
  world.crash(v[25]);
  world.repair_all(kPingTimeout, 2);
  ASSERT_TRUE(check_consistency(view_of(world.overlay)).consistent());

  // New nodes join the healed network (gateways must be live).
  std::vector<NodeId> live;
  for (const auto& node : world.overlay.nodes())
    if (!node->is_crashed()) live.push_back(node->id());
  Rng rng(3);
  const std::vector<NodeId> w(ids.begin() + 60, ids.end());
  join_concurrently(world, w, live, rng);
  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(check_consistency(view_of(world.overlay)).consistent());
}

TEST(Recovery, LeaveWorksAfterRecovery) {
  // The reverse-set pruning matters here: without it, a post-crash leave
  // would wait forever on an ack from the dead node.
  const IdParams params{4, 5};
  World world(params, 40);
  auto ids = make_ids(params, 40, 31);
  build_consistent_network(world.overlay, ids);
  world.crash(ids[3]);
  world.repair_all(kPingTimeout, 2);
  ASSERT_TRUE(check_consistency(view_of(world.overlay)).consistent());

  leave_and_drain(world, ids[10]);
  EXPECT_TRUE(world.overlay.at(ids[10]).has_departed());
  EXPECT_TRUE(check_consistency(view_of(world.overlay)).consistent());
}

TEST(Recovery, NoCrashNoChange) {
  const IdParams params{4, 5};
  World world(params, 30);
  auto ids = make_ids(params, 30, 41);
  build_consistent_network(world.overlay, ids);
  const auto queries = world.repair_all(kPingTimeout, 1);
  EXPECT_EQ(queries, 0u);  // all pings answered; nothing repaired
  EXPECT_TRUE(check_consistency(view_of(world.overlay)).consistent());
}

TEST(Recovery, PongBeatsShortTimeoutRace) {
  // A generous network (constant 1 ms latency) with a tight-but-sufficient
  // timeout: no false positives even when everything happens quickly.
  const IdParams params{4, 5};
  hcube::World world(params, {}, std::make_unique<ConstantLatency>(30, 1.0));
  auto ids = make_ids(params, 30, 51);
  build_consistent_network(world.overlay, ids);
  const auto queries = world.repair_all(/*ping_timeout_ms=*/2.5, 1);
  EXPECT_EQ(queries, 0u);
}

}  // namespace
}  // namespace hcube
