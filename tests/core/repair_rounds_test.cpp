// Repair under clustered failure: one pull phase vacates every pointer at
// the dead (all pings time out in the same round), but refilling the holes
// is epidemic — the lone survivor of a decimated suffix class propagates
// one announce hop per round, so a clustered crash needs multiple rounds
// before the network is consistent again. Also covers the stale
// ping-timeout path: a start_repair that overlaps an outstanding probe
// bumps the generation, and the superseded timeout must do nothing.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::make_ids;

constexpr SimTime kPingTimeout = 500.0;

// Does any live node still store (or reverse-track) one of `dead`?
bool references_any(const Overlay& overlay, const std::vector<NodeId>& dead) {
  bool found = false;
  for (const auto& node : overlay.nodes()) {
    if (node->is_crashed()) continue;
    node->table().for_each_filled([&](std::uint32_t, std::uint32_t,
                                      const NodeId& n, NeighborState) {
      for (const NodeId& d : dead)
        if (n == d) found = true;
    });
    for (const NodeId& d : dead)
      if (node->table().reverse_neighbors().contains(d)) found = true;
  }
  return found;
}

TEST(RepairRounds, ClusteredClassCrashNeedsMultipleRounds) {
  // Crash every member but one of the largest level-0 suffix class. The
  // pull phase of round 1 detects and vacates every dead pointer at once
  // (queries flow, but peers answer from already-cleaned tables), yet most
  // survivors are left with an empty (0, d) entry and no idea the class
  // still has a member: the survivor re-advertises itself one announce hop
  // per round, so consistency takes more than one round to restore.
  const IdParams params{4, 6};
  World world(params, 60);
  auto ids = make_ids(params, 60, 5);
  build_consistent_network(world.overlay, ids);

  std::map<std::uint32_t, std::vector<NodeId>> classes;
  for (const NodeId& id : ids)
    classes[static_cast<std::uint32_t>(id.digit(0))].push_back(id);
  const std::vector<NodeId>* biggest = nullptr;
  for (const auto& [digit, members] : classes)
    if (biggest == nullptr || members.size() > biggest->size())
      biggest = &members;
  ASSERT_GE(biggest->size(), 3u);
  const std::vector<NodeId> dead(biggest->begin(), biggest->end() - 1);
  for (const NodeId& d : dead) world.crash(d);

  // Round 1: the pull phase issues queries and scrubs every dead pointer —
  // but cannot yet have re-filled every hole.
  const auto q1 = world.repair_all(kPingTimeout, 1);
  EXPECT_GT(q1, 0u);
  EXPECT_FALSE(references_any(world.overlay, dead));
  const bool consistent_after_one =
      check_consistency(view_of(world.overlay)).consistent();

  int rounds = 1;
  while (rounds < 10 &&
         !check_consistency(view_of(world.overlay)).consistent()) {
    world.repair_all(kPingTimeout, 1);
    ++rounds;
  }
  EXPECT_FALSE(consistent_after_one)
      << "clustered crash unexpectedly healed in a single round";
  EXPECT_GE(rounds, 2);
  const auto report = check_consistency(view_of(world.overlay));
  EXPECT_TRUE(report.consistent())
      << "still inconsistent after " << rounds << " rounds\n"
      << report.summary(params);
  EXPECT_FALSE(references_any(world.overlay, dead));
}

TEST(RepairRounds, SupersededPingTimeoutIsIgnored) {
  // Two overlapping repair waves: the second start_repair (t=100) bumps the
  // probe generation for every pending ping, so the first wave's timeouts
  // (t=500) hit the generation-mismatch branch and must not vacate or
  // repair anything — the second wave's own timeouts (t=600) do the single
  // repair. Pongs answering wave-1 pings that arrive after wave 2 began
  // also exercise the probe-already-erased branch. A normal settling round
  // afterwards propagates the announce phase (same reason a single crash
  // needs two rounds, see recovery_test.cpp).
  const IdParams params{4, 5};
  World world(params, 30);
  auto ids = make_ids(params, 30, 17);
  build_consistent_network(world.overlay, ids);
  world.crash(ids[4]);

  for (const auto& node : world.overlay.nodes())
    if (node->is_s_node()) node->start_repair(kPingTimeout);
  world.net.driver().schedule_action(world.now() + 100.0, [&] {
    for (const auto& node : world.overlay.nodes())
      if (node->is_s_node()) node->start_repair(kPingTimeout);
  });
  world.drain();
  for (const auto& node : world.overlay.nodes()) {
    EXPECT_FALSE(node->repair_in_progress());
    if (node->is_s_node()) node->announce_table();
  }
  world.drain();
  world.repair_all(kPingTimeout, 1);

  EXPECT_FALSE(references_any(world.overlay, {ids[4]}));
  const auto report = check_consistency(view_of(world.overlay));
  EXPECT_TRUE(report.consistent()) << report.summary(params);
}

}  // namespace
}  // namespace hcube
