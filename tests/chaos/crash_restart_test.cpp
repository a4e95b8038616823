// Crash -> restart -> rejoin under the same NodeId.
//
// The crash-recovery lifecycle (Node::restart) revives a crashed node at
// its original transport endpoint and re-enters the join protocol under a
// bumped attempt generation. The tests pin the two properties that make
// that sound:
//   * stale rejection — replies sent to the pre-crash incarnation that are
//     still in flight when the node restarts carry the dead attempt's
//     generation and are rejected (JoinStats::stale_rejected), and
//   * convergence — the restarted node settles again and the full
//     consistency audit passes, including for builder-installed seed nodes
//     whose ID saturates the network's tables before their first join ever
//     runs (the generation floor in Node::restart).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/builder.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::make_ids;
using testing::World;

TEST(CrashRestart, StalePreCrashRepliesAreRejected) {
  const IdParams params{16, 8};
  World world(params, 20);
  const auto ids = make_ids(params, 17, 31);
  const std::vector<NodeId> seeds(ids.begin(), ids.begin() + 16);
  build_consistent_network(world.overlay, seeds);
  const NodeId& joiner = ids[16];

  // Crash the joiner mid-copy-walk, restart it almost immediately: every
  // reply the first attempt solicited is still in flight (latencies run
  // 5-120ms per hop) and arrives at the new incarnation, whose generation
  // filter must reject it.
  world.schedule_join(joiner, seeds[0], 0.0);
  ShardDriver& driver = world.net.driver();
  driver.schedule_action(30.0, [&] { world.crash(joiner); });
  driver.schedule_action(31.0,
                         [&] { world.restart(joiner, seeds[1]); });
  world.drain();

  const Node& node = world.overlay.at(joiner);
  EXPECT_TRUE(node.is_s_node());
  EXPECT_GE(world.overlay.join_counters().stale_rejected, 1u)
      << "no stale pre-crash reply was rejected; the generation filter "
         "never fired";
  EXPECT_TRUE(world.overlay.all_in_system());
  const ConsistencyReport report = testing::audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params, 3);
}

TEST(CrashRestart, SettledNodeRejoinsAfterRepair) {
  const IdParams params{16, 8};
  World world(params, 24);
  const auto ids = make_ids(params, 20, 32);
  const std::vector<NodeId> seeds(ids.begin(), ids.begin() + 16);
  build_consistent_network(world.overlay, seeds);
  // Grow the network past the builder so the crash victim has joined
  // normally (non-trivial join state, reverse neighbors registered).
  for (int k = 0; k < 4; ++k)
    world.schedule_join(ids[16 + k], seeds[k], 10.0 * k);
  world.drain();
  ASSERT_TRUE(world.overlay.all_in_system());

  const NodeId& victim = ids[17];
  world.crash(victim);
  world.repair_all();
  ASSERT_TRUE(testing::audit(world.overlay).consistent());

  world.restart(victim, seeds[3]);
  world.drain();
  EXPECT_TRUE(world.overlay.at(victim).is_s_node());
  EXPECT_TRUE(world.overlay.all_in_system());
  const ConsistencyReport report = testing::audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params, 3);
}

TEST(CrashRestart, SeedNodeRejoinsWithoutPriorRepair) {
  // A builder-installed seed node never ran a join, so its attempt
  // generation is still 0 at crash time — yet its ID is all over the
  // network. The restart must not run at generation 1 (the join protocol's
  // virgin-first-attempt marker, which asserts the ID appears in no table);
  // Node::restart floors the generation so the rejoin tolerates meeting its
  // own stale entries mid-copy-walk.
  const IdParams params{16, 8};
  World world(params, 16);
  const auto ids = make_ids(params, 16, 33);
  build_consistent_network(world.overlay, ids);

  world.crash(ids[3]);
  world.restart(ids[3], ids[0]);  // deliberately no repair first
  world.drain();
  EXPECT_TRUE(world.overlay.at(ids[3]).is_s_node());

  world.repair_all();
  EXPECT_TRUE(world.overlay.all_in_system());
  const ConsistencyReport report = testing::audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params, 3);
}

}  // namespace
}  // namespace hcube
