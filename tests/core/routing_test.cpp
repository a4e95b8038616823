#include "core/routing.h"

#include <gtest/gtest.h>

#include "core/builder.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::id_of;
using testing::make_ids;

TEST(Routing, ResolvesOneDigitPerHop) {
  const IdParams params{4, 5};
  World world(params, 64);
  auto ids = make_ids(params, 60, 12);
  build_consistent_network(world.overlay, ids);
  const NetworkView net = view_of(world.overlay);

  for (std::size_t i = 0; i < 10; ++i) {
    const auto result = route(net, ids[i], ids[ids.size() - 1 - i]);
    ASSERT_TRUE(result.success);
    EXPECT_LE(result.hops(), params.num_digits);
    // Each hop extends the common suffix with the destination.
    const NodeId& dst = ids[ids.size() - 1 - i];
    std::size_t prev = result.path.front().csuf_len(dst);
    for (std::size_t h = 1; h < result.path.size(); ++h) {
      const std::size_t cur = result.path[h].csuf_len(dst);
      EXPECT_GT(cur, prev);
      prev = cur;
    }
  }
}

TEST(Routing, RouteToSelfIsZeroHops) {
  const IdParams params{4, 4};
  World world(params, 8);
  auto ids = make_ids(params, 5, 3);
  build_consistent_network(world.overlay, ids);
  const auto result = route(view_of(world.overlay), ids[0], ids[0]);
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.hops(), 0u);
}

TEST(Routing, FailsForNonexistentDestination) {
  const IdParams params{4, 4};
  World world(params, 16);
  UniqueIdGenerator gen(params, 4);
  std::vector<NodeId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(gen.next());
  build_consistent_network(world.overlay, ids);
  const NodeId outsider = gen.next();
  const auto result = route(view_of(world.overlay), ids[0], outsider);
  EXPECT_FALSE(result.success);  // false-positive freedom: no path leads there
}

TEST(Routing, StartsAtCsufLevel) {
  // Section 2.2: a node that already shares k digits with the destination
  // needs at most d - k hops.
  const IdParams params{2, 8};
  World world(params, 64);
  auto ids = make_ids(params, 50, 8);
  build_consistent_network(world.overlay, ids);
  const NetworkView net = view_of(world.overlay);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = 0; j < ids.size(); ++j) {
      if (i == j) continue;
      const auto result = route(net, ids[i], ids[j]);
      ASSERT_TRUE(result.success);
      EXPECT_LE(result.hops(),
                params.num_digits - ids[i].csuf_len(ids[j]));
    }
  }
}

TEST(SurrogateRouting, AllOriginsAgreeOnRoot) {
  const IdParams params{4, 6};
  World world(params, 64);
  auto ids = make_ids(params, 50, 5);
  build_consistent_network(world.overlay, ids);
  const NetworkView net = view_of(world.overlay);

  Rng rng(6);
  for (int obj = 0; obj < 40; ++obj) {
    const NodeId object_id = random_id(rng, params);
    const auto first = surrogate_route(net, ids[0], object_id);
    ASSERT_TRUE(first.has_value());
    for (std::size_t i = 1; i < ids.size(); i += 7) {
      const auto other = surrogate_route(net, ids[i], object_id);
      ASSERT_TRUE(other.has_value());
      EXPECT_EQ(other->root, first->root)
          << "origins disagree on the root of "
          << object_id.to_string(params);
    }
  }
}

TEST(SurrogateRouting, ExactMatchRootsAtThatNode) {
  const IdParams params{4, 5};
  World world(params, 32);
  auto ids = make_ids(params, 20, 9);
  build_consistent_network(world.overlay, ids);
  const NetworkView net = view_of(world.overlay);
  // An "object" whose ID equals a member ID must root exactly there.
  for (const NodeId& member : ids) {
    const auto result = surrogate_route(net, ids[0], member);
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->root, member);
  }
}

TEST(SurrogateRouting, SingleNodeNetworkRootsEverything) {
  const IdParams params{4, 5};
  World world(params, 4);
  auto ids = make_ids(params, 1, 13);
  build_consistent_network(world.overlay, ids);
  const NetworkView net = view_of(world.overlay);
  Rng rng(1);
  for (int i = 0; i < 10; ++i) {
    const auto result = surrogate_route(net, ids[0], random_id(rng, params));
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->root, ids[0]);
  }
}

TEST(SurrogateRouting, RootsStayConsistentAfterJoins) {
  // Root assignment before and after a join wave: objects may move to new
  // nodes, but all origins must still agree afterwards.
  const IdParams params{4, 6};
  World world(params, 64);
  auto ids = make_ids(params, 50, 15);
  const std::vector<NodeId> v_ids(ids.begin(), ids.begin() + 30);
  const std::vector<NodeId> w_ids(ids.begin() + 30, ids.end());
  build_consistent_network(world.overlay, v_ids);
  Rng rng(2);
  join_concurrently(world, w_ids, v_ids, rng);
  ASSERT_TRUE(world.overlay.all_in_system());

  const NetworkView net = view_of(world.overlay);
  for (int obj = 0; obj < 25; ++obj) {
    const NodeId object_id = random_id(rng, params);
    const auto a = surrogate_route(net, ids[0], object_id);
    const auto b = surrogate_route(net, ids[40], object_id);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->root, b->root);
  }
}

}  // namespace
}  // namespace hcube
