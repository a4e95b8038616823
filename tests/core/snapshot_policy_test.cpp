// Section 6.2 message-size reductions: both enhancements must preserve
// consistency while shrinking bytes on the wire.
#include <gtest/gtest.h>

#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::audit;
using testing::make_ids;

class SnapshotPolicyTest : public ::testing::TestWithParam<SnapshotPolicy> {};

TEST_P(SnapshotPolicyTest, ConcurrentJoinsStayConsistent) {
  const IdParams params{4, 6};
  ProtocolOptions options;
  options.snapshot_policy = GetParam();
  for (std::uint64_t seed : {3u, 4u, 5u}) {
    World world(params, 120, options, seed);
    auto ids = make_ids(params, 100, seed * 31);
    const std::vector<NodeId> v(ids.begin(), ids.begin() + 50);
    const std::vector<NodeId> w(ids.begin() + 50, ids.end());
    build_consistent_network(world.overlay, v);
    Rng rng(seed);
    join_concurrently(world, w, v, rng);
    ASSERT_TRUE(world.overlay.all_in_system())
        << "policy " << to_string(GetParam());
    const auto report = audit(world.overlay);
    EXPECT_TRUE(report.consistent())
        << "policy " << to_string(GetParam()) << "\n"
        << report.summary(params);
  }
}

TEST_P(SnapshotPolicyTest, SequentialJoinsStayConsistent) {
  const IdParams params{8, 5};
  ProtocolOptions options;
  options.snapshot_policy = GetParam();
  World world(params, 64, options);
  auto ids = make_ids(params, 50, 17);
  Rng rng(7);
  initialize_network(world, ids, rng, /*concurrent=*/false);
  EXPECT_TRUE(audit(world.overlay).consistent());
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, SnapshotPolicyTest,
                         ::testing::Values(SnapshotPolicy::kFullTable,
                                           SnapshotPolicy::kPartialLevels,
                                           SnapshotPolicy::kBitVector),
                         [](const auto& param_info) {
                           switch (param_info.param) {
                             case SnapshotPolicy::kFullTable:
                               return "FullTable";
                             case SnapshotPolicy::kPartialLevels:
                               return "PartialLevels";
                             case SnapshotPolicy::kBitVector:
                               return "BitVector";
                           }
                           return "Unknown";
                         });

// The §6.2 size reductions and the §2.1 redundant neighbors are orthogonal
// options; every combination must keep concurrent joins consistent.
struct ComboCase {
  SnapshotPolicy policy;
  std::uint32_t backups;
};
class OptionComboTest : public ::testing::TestWithParam<ComboCase> {};

TEST_P(OptionComboTest, ConcurrentJoinsConsistentUnderAnyCombination) {
  const IdParams params{4, 6};
  ProtocolOptions options;
  options.snapshot_policy = GetParam().policy;
  options.backups_per_entry = GetParam().backups;
  World world(params, 100, options, 77);
  auto ids = make_ids(params, 90, 555);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 45);
  const std::vector<NodeId> w(ids.begin() + 45, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(9);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());
  const auto report = audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, OptionComboTest,
    ::testing::Values(ComboCase{SnapshotPolicy::kFullTable, 1},
                      ComboCase{SnapshotPolicy::kFullTable, 3},
                      ComboCase{SnapshotPolicy::kPartialLevels, 2},
                      ComboCase{SnapshotPolicy::kBitVector, 1},
                      ComboCase{SnapshotPolicy::kBitVector, 3}));

std::uint64_t joiner_bytes(const IdParams& params, SnapshotPolicy policy,
                           std::uint64_t seed) {
  ProtocolOptions options;
  options.snapshot_policy = policy;
  World world(params, 120, options, seed);
  auto ids = make_ids(params, 100, 1234);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 60);
  const std::vector<NodeId> w(ids.begin() + 60, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(seed);
  join_concurrently(world, w, v, rng);
  HCUBE_CHECK(world.overlay.all_in_system());
  HCUBE_CHECK(check_consistency(view_of(world.overlay)).consistent());
  // Network-wide bytes: the bit-vector enhancement saves on *reply* tables
  // (sent by the notified nodes), so count everyone.
  return world.overlay.totals().bytes;
}

TEST(SnapshotPolicyAblation, EnhancementsReduceBytes) {
  // Identical workload (same IDs, gateways, latencies) under the three
  // policies: partial levels must beat full tables, and the bit-vector
  // policy must not exceed partial levels.
  const IdParams params{16, 8};
  const std::uint64_t full =
      joiner_bytes(params, SnapshotPolicy::kFullTable, 5);
  const std::uint64_t partial =
      joiner_bytes(params, SnapshotPolicy::kPartialLevels, 5);
  const std::uint64_t bitvec =
      joiner_bytes(params, SnapshotPolicy::kBitVector, 5);
  EXPECT_LT(partial, full);
  // The bit vector costs bytes in the request but prunes reply tables,
  // which dominate; network-wide it must beat partial levels too.
  EXPECT_LT(bitvec, partial);
}

}  // namespace
}  // namespace hcube
