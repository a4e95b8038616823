// Nearest-neighbor table optimization (core/optimize.h).
#include "core/optimize.h"

#include <gtest/gtest.h>

#include "core/routing.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::audit;
using testing::make_ids;

TEST(Optimize, PreservesConsistency) {
  const IdParams params{4, 6};
  World world(params, 120);
  build_consistent_network(world.overlay, make_ids(params, 120, 5));
  const auto result = optimize_tables(world.overlay, world.latency());
  EXPECT_GT(result.entries_examined, 0u);
  const auto report = audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);
}

TEST(Optimize, EveryEntryIsNearestAmongScannedCandidates) {
  const IdParams params{4, 5};
  World world(params, 60);
  auto ids = make_ids(params, 60, 7);
  build_consistent_network(world.overlay, ids);
  optimize_tables(world.overlay, world.latency(), /*max_candidates=*/1000);

  SuffixTrie members(params);
  for (const NodeId& id : ids) members.insert(id);

  for (const auto& node : world.overlay.nodes()) {
    const NodeId& x = node->id();
    const HostId xh = world.overlay.host_of(x);
    node->table().for_each_filled([&](std::uint32_t i, std::uint32_t j,
                                      const NodeId& current, NeighborState) {
      if (current == x) return;
      Suffix want = x.suffix_of_len(i);
      want.push_back(static_cast<Digit>(j));
      const double chosen =
          world.latency().latency_ms(xh, world.overlay.host_of(current));
      for (const NodeId& c : members.all_with_suffix(want)) {
        if (c == x) continue;
        EXPECT_GE(world.latency().latency_ms(xh, world.overlay.host_of(c)),
                  chosen - 1e-9)
            << "entry (" << i << "," << j << ") of " << x.to_string(params)
            << " is not nearest";
      }
    });
  }
}

TEST(Optimize, ReverseNeighborBookkeepingStaysExact) {
  const IdParams params{4, 6};
  World world(params, 80);
  auto ids = make_ids(params, 80, 11);
  build_consistent_network(world.overlay, ids);
  optimize_tables(world.overlay, world.latency());

  // u in reverse set of v  <=>  u stores v somewhere.
  for (const auto& v : world.overlay.nodes()) {
    for (const NodeId& u : v->table().reverse_neighbors()) {
      bool stores = false;
      world.overlay.at(u).table().for_each_filled(
          [&](std::uint32_t, std::uint32_t, const NodeId& n, NeighborState) {
            if (n == v->id()) stores = true;
          });
      EXPECT_TRUE(stores) << u.to_string(params) << " registered at "
                          << v->id().to_string(params) << " but stores it nowhere";
    }
  }
  for (const auto& u : world.overlay.nodes()) {
    u->table().for_each_filled([&](std::uint32_t, std::uint32_t,
                                   const NodeId& n, NeighborState) {
      if (n == u->id()) return;
      EXPECT_TRUE(world.overlay.at(n).table().reverse_neighbors().contains(
          u->id()))
          << u->id().to_string(params) << " stores " << n.to_string(params)
          << " without registration";
    });
  }
}

TEST(Optimize, IdempotentSecondPass) {
  const IdParams params{4, 6};
  World world(params, 60);
  build_consistent_network(world.overlay, make_ids(params, 60, 13));
  optimize_tables(world.overlay, world.latency(), 1000);
  const auto second = optimize_tables(world.overlay, world.latency(), 1000);
  EXPECT_EQ(second.entries_rebound, 0u);
}

TEST(Optimize, JoinsStillWorkAfterOptimization) {
  const IdParams params{4, 6};
  World world(params, 70);
  auto ids = make_ids(params, 70, 17);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 50);
  const std::vector<NodeId> w(ids.begin() + 50, ids.end());
  build_consistent_network(world.overlay, v);
  optimize_tables(world.overlay, world.latency());
  Rng rng(3);
  join_concurrently(world, w, v, rng);
  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(audit(world.overlay).consistent());
}

TEST(Optimize, LeavesStillWorkAfterOptimization) {
  const IdParams params{4, 6};
  World world(params, 50);
  auto ids = make_ids(params, 50, 19);
  build_consistent_network(world.overlay, ids);
  optimize_tables(world.overlay, world.latency());
  for (int i = 0; i < 8; ++i) {
    leave_and_drain(world, ids[i * 5]);
    ASSERT_TRUE(audit(world.overlay).consistent());
  }
}

TEST(Optimize, SingleNodeNoop) {
  const IdParams params{4, 4};
  World world(params, 2);
  build_consistent_network(world.overlay, make_ids(params, 1, 23));
  const auto result = optimize_tables(world.overlay, world.latency());
  EXPECT_EQ(result.entries_examined, 0u);  // only own entries exist
  EXPECT_EQ(result.entries_rebound, 0u);
}

}  // namespace
}  // namespace hcube
