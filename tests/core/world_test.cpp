// World's driving helpers — concurrent joins, crashes, repair rounds, a
// restart, a closed-loop leave — give the same run at every lane count K,
// as the chaos engine's do (DESIGN.md §16).
#include "core/world.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "test_util.h"

namespace hcube {
namespace {

struct Outcome {
  std::uint64_t messages, bytes, repair_queries, events, cross_shard;
  bool consistent;
};

Outcome run_on_lanes(std::uint32_t lanes) {
  const IdParams params{4, 6};
  World world(params, {},
              std::make_unique<SyntheticLatency>(200, 5.0, 120.0, 42),
              ShardedNet::Params{lanes, {}});
  const auto ids = testing::make_ids(params, 200, 19);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 160);
  const std::vector<NodeId> w(ids.begin() + 160, ids.end());
  {
    // finish_install stamps t_begin via env.now(); every lane sits at 0.
    LaneScope scope(&world.net.lane_queue(0), 0);
    build_consistent_network(world.overlay, v);
  }
  Rng rng(5);
  join_concurrently(world, w, v, rng, /*window_ms=*/300.0);
  for (std::size_t i = 0; i < 10; ++i) world.crash(ids[7 + 19 * i]);
  const std::uint64_t queries = world.repair_all(500.0, 2);
  // One victim comes back under its old id and rejoins through a live
  // gateway; all_in_system() below then counts it, since it is no longer
  // crashed.
  world.restart(ids[7], ids[0]);
  world.drain();
  leave_and_drain(world, ids[3]);
  return Outcome{world.overlay.totals().messages,
                 world.overlay.totals().bytes,
                 queries,
                 world.net.driver().events_processed(),
                 world.net.cross_shard_messages(),
                 world.overlay.all_in_system() &&
                     testing::audit(world.overlay).consistent()};
}

TEST(World, DrivingHelpersGiveTheSameRunAtEveryLaneCount) {
  const Outcome one = run_on_lanes(1);
  const Outcome four = run_on_lanes(4);
  EXPECT_TRUE(one.consistent);
  EXPECT_TRUE(four.consistent);
  EXPECT_GT(one.repair_queries, 0u);  // the crashes were noticed
  // K = 4 really crossed lanes: the count of deliveries and ack receipts
  // committed between them is pinned exactly, as K = 1's zero is.
  EXPECT_EQ(one.cross_shard, 0u);
  EXPECT_EQ(four.cross_shard, 36148u);
  EXPECT_EQ(four.messages, one.messages);
  EXPECT_EQ(four.bytes, one.bytes);
  EXPECT_EQ(four.repair_queries, one.repair_queries);
  EXPECT_EQ(four.events, one.events);
}

}  // namespace
}  // namespace hcube
