// Redundant neighbors per entry (Section 2.1's "extra neighbors ... for
// fault tolerant routing") and the machinery that uses them: fault-tolerant
// routing over stale tables and backup promotion during recovery.
#include <gtest/gtest.h>

#include "core/routing.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::audit;
using testing::id_of;
using testing::make_ids;

TEST(Backups, TableStoresAndValidates) {
  const IdParams params{4, 5};
  const NodeId owner = id_of("21233", params);
  NeighborTable table(params, owner);
  table.set(1, 0, id_of("13103", params), NeighborState::kS);

  // Valid backup for entry (1, 0): another *03 node.
  EXPECT_TRUE(table.offer_backup(1, 0, id_of("22203", params), 2));
  // Duplicates, the primary, the owner, and overflow are all rejected.
  EXPECT_FALSE(table.offer_backup(1, 0, id_of("22203", params), 2));
  EXPECT_FALSE(table.offer_backup(1, 0, id_of("13103", params), 2));
  EXPECT_TRUE(table.offer_backup(1, 0, id_of("33303", params), 2));
  EXPECT_FALSE(table.offer_backup(1, 0, id_of("11103", params), 2));  // full
  EXPECT_EQ(table.backups(1, 0).size(), 2u);
  EXPECT_EQ(table.total_backups(), 2u);

  // Wrong suffix dies.
  EXPECT_DEATH(table.offer_backup(1, 0, id_of("22212", params), 2), "suffix");
}

TEST(Backups, PurgeAndTake) {
  const IdParams params{4, 5};
  const NodeId owner = id_of("21233", params);
  NeighborTable table(params, owner);
  table.set(1, 0, id_of("13103", params), NeighborState::kS);
  table.offer_backup(1, 0, id_of("22203", params), 3);
  table.offer_backup(1, 0, id_of("33303", params), 3);

  table.purge_backup(1, 0, id_of("22203", params));
  EXPECT_EQ(table.backups(1, 0).size(), 1u);
  EXPECT_EQ(table.take_first_backup(1, 0), id_of("33303", params));
  EXPECT_TRUE(table.backups(1, 0).empty());
  EXPECT_FALSE(table.take_first_backup(1, 0).is_valid());
  EXPECT_EQ(table.total_backups(), 0u);
}

TEST(Backups, JoinsPopulateBackupsOpportunistically) {
  // Dense ID space + many joins: occupied entries see later class members
  // and remember them.
  const IdParams params{2, 10};
  ProtocolOptions options;
  options.backups_per_entry = 2;
  World world(params, 140, options);
  auto ids = make_ids(params, 120, 7);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 40);
  const std::vector<NodeId> w(ids.begin() + 40, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(3);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());
  ASSERT_TRUE(audit(world.overlay).consistent());

  // The builder gave v's tables their backups up front; a joiner's table
  // holds only what its join offered it.
  std::size_t total = 0;
  for (const NodeId& x : w)
    total += world.overlay.at(x).table().total_backups();
  EXPECT_GT(total, 50u);  // plenty of redundancy accumulated

  // Every backup satisfies its entry's suffix constraint and names a
  // member (NeighborTable enforces the former; check membership here).
  for (const auto& node : world.overlay.nodes()) {
    node->table().for_each_filled([&](std::uint32_t i, std::uint32_t j,
                                      const NodeId&, NeighborState) {
      for (const NodeId& b : node->table().backups(i, j))
        EXPECT_NE(world.overlay.find(b), nullptr);
    });
  }
}

TEST(Backups, FaultTolerantRoutingSurvivesCrashesBeforeRepair) {
  const IdParams params{16, 8};
  ProtocolOptions options;
  options.backups_per_entry = 3;
  World world(params, 600, options);
  auto ids = make_ids(params, 600, 11);
  build_consistent_network(world.overlay, ids);

  // Crash 10% and do NOT repair.
  Rng rng(5);
  for (const auto idx : rng.sample_without_replacement(600, 60))
    world.crash(ids[idx]);
  const NetworkView live = view_of(world.overlay);

  std::uint64_t plain_ok = 0, ft_ok = 0, trials = 0;
  for (int i = 0; i < 2000; ++i) {
    const NodeId& a = ids[rng.next_below(ids.size())];
    const NodeId& b = ids[rng.next_below(ids.size())];
    if (a == b || !live.contains(a) || !live.contains(b)) continue;
    ++trials;
    if (route(live, a, b).success) ++plain_ok;
    if (route_fault_tolerant(live, a, b).success) ++ft_ok;
  }
  ASSERT_GT(trials, 500u);
  EXPECT_GT(ft_ok, plain_ok);  // backups must help
  // With 3 backups per entry and 10% failures, nearly everything routes.
  EXPECT_GT(static_cast<double>(ft_ok) / static_cast<double>(trials), 0.99);
  EXPECT_LT(static_cast<double>(plain_ok) / static_cast<double>(trials),
            0.98);
}

TEST(Backups, RecoveryPromotesBackups) {
  const IdParams params{4, 6};
  ProtocolOptions options;
  options.backups_per_entry = 2;
  World world(params, 80, options);
  auto ids = make_ids(params, 80, 13);
  build_consistent_network(world.overlay, ids);

  Rng rng(2);
  for (const auto idx : rng.sample_without_replacement(80, 8))
    world.crash(ids[idx]);
  const auto queries = world.repair_all(500.0, 2);

  const auto report = check_consistency(view_of(world.overlay));
  EXPECT_TRUE(report.consistent()) << report.summary(params);
  // With backups, many repairs resolve by promotion instead of querying:
  // compare against a backup-less twin of the same world.
  World bare(params, 80);
  build_consistent_network(bare.overlay, ids);
  Rng rng2(2);
  for (const auto idx : rng2.sample_without_replacement(80, 8))
    bare.crash(ids[idx]);
  const auto bare_queries = bare.repair_all(500.0, 2);
  EXPECT_TRUE(check_consistency(view_of(bare.overlay)).consistent());
  EXPECT_LT(queries, bare_queries);
}

TEST(Backups, LeavePurgesLeaverFromBackups) {
  const IdParams params{4, 6};
  ProtocolOptions options;
  options.backups_per_entry = 2;
  World world(params, 40, options);
  auto ids = make_ids(params, 40, 17);
  build_consistent_network(world.overlay, ids);

  const NodeId& leaver = ids[4];
  leave_and_drain(world, leaver);
  ASSERT_TRUE(world.overlay.at(leaver).has_departed());
  ASSERT_TRUE(audit(world.overlay).consistent());

  // The leaver must not appear as a PRIMARY anywhere (protocol guarantee);
  // it may linger as a backup only in entries it was never announced for —
  // those are skipped by fault-tolerant routing. Verify primaries here.
  for (const auto& node : world.overlay.nodes()) {
    if (node->has_departed()) continue;
    node->table().for_each_filled([&](std::uint32_t, std::uint32_t,
                                      const NodeId& n,
                                      NeighborState) { EXPECT_NE(n, leaver); });
  }
}

TEST(Backups, ZeroBackupsConfigIsPaperBehavior) {
  const IdParams params{4, 6};
  World world(params, 60);  // default options: backups_per_entry = 0
  auto ids = make_ids(params, 50, 19);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 25);
  const std::vector<NodeId> w(ids.begin() + 25, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(1);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());
  for (const auto& node : world.overlay.nodes())
    EXPECT_EQ(node->table().total_backups(), 0u);
}

}  // namespace
}  // namespace hcube
