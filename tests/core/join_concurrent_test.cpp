// Concurrent joins — the paper's headline result (Theorem 1): an arbitrary
// number of concurrent joins into a consistent network leaves the network
// consistent, and every joiner terminates as an S-node (Theorem 2).
#include <gtest/gtest.h>

#include <tuple>

#include "analysis/join_cost.h"
#include "core/cset_tree.h"
#include "ids/suffix_trie.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::audit;
using testing::id_of;
using testing::make_ids;

TEST(JoinConcurrent, PaperSection33Example) {
  // The worked example of Section 3.3: b = 8, d = 5,
  // V = {72430, 10353, 62332, 13141, 31701}, W = {10261, 47051, 00261}.
  // 10261 and 00261 share suffix 261 and join dependently.
  const IdParams params{8, 5};
  World world(params, 16);
  std::vector<NodeId> v_ids;
  for (const char* s : {"72430", "10353", "62332", "13141", "31701"})
    v_ids.push_back(id_of(s, params));
  std::vector<NodeId> w_ids;
  for (const char* s : {"10261", "47051", "00261"})
    w_ids.push_back(id_of(s, params));

  build_consistent_network(world.overlay, v_ids);
  Rng rng(4);
  join_concurrently(world, w_ids, v_ids, rng, /*window_ms=*/0.0);

  EXPECT_TRUE(world.overlay.all_in_system());
  const auto report = audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);

  // All three joiners notify within V_1 (the paper's C-set tree example):
  // their notification sets regarding V share the root V_1.
  SuffixTrie v_trie(params);
  for (const NodeId& id : v_ids) v_trie.insert(id);
  EXPECT_EQ(notify_suffix(v_trie, id_of("10261", params)),
            (Suffix{1}));
  EXPECT_EQ(notify_suffix(v_trie, id_of("00261", params)),
            (Suffix{1}));
  EXPECT_EQ(notify_suffix(v_trie, id_of("47051", params)),
            (Suffix{1}));

  // And the realized C-set tree satisfies conditions (1)-(3).
  const auto violations = check_cset_conditions(
      view_of(world.overlay), v_trie, Suffix{1}, w_ids);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front());
}

struct ConcurrentCase {
  std::uint32_t base;
  std::uint32_t digits;
  std::size_t n;  // initial network size
  std::size_t m;  // concurrent joiners
  std::uint64_t seed;
};

class ConcurrentJoinSweep : public ::testing::TestWithParam<ConcurrentCase> {};

TEST_P(ConcurrentJoinSweep, ConsistentAndTerminates) {
  const auto& c = GetParam();
  const IdParams params{c.base, c.digits};
  World world(params, static_cast<std::uint32_t>(c.n + c.m), {}, c.seed);
  auto ids = make_ids(params, c.n + c.m, c.seed);
  const std::vector<NodeId> v_ids(ids.begin(),
                                  ids.begin() + static_cast<long>(c.n));
  const std::vector<NodeId> w_ids(ids.begin() + static_cast<long>(c.n),
                                  ids.end());
  build_consistent_network(world.overlay, v_ids);

  Rng rng(c.seed ^ 0xabcd);
  join_concurrently(world, w_ids, v_ids, rng, /*window_ms=*/0.0);

  // Theorem 2: every joiner becomes an S-node.
  EXPECT_TRUE(world.overlay.all_in_system());
  // Theorem 1: the final network is consistent (and no stale T states).
  const auto report = audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);
  // Theorem 3: per-joiner copy+wait message bound.
  for (const NodeId& w : w_ids) {
    EXPECT_LE(world.overlay.at(w).join_stats().copy_plus_wait(),
              theorem3_bound(params));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ConcurrentJoinSweep,
    ::testing::Values(
        // Dense ID spaces (b=2) maximize suffix collisions => dependent
        // joins; sparse spaces (b=16) exercise independent joins.
        ConcurrentCase{2, 10, 20, 20, 1}, ConcurrentCase{2, 10, 50, 30, 2},
        ConcurrentCase{2, 12, 100, 60, 3}, ConcurrentCase{4, 6, 30, 30, 4},
        ConcurrentCase{4, 8, 80, 40, 5}, ConcurrentCase{4, 8, 10, 60, 6},
        ConcurrentCase{8, 5, 40, 25, 7}, ConcurrentCase{16, 4, 50, 25, 8},
        ConcurrentCase{16, 8, 5, 40, 9}, ConcurrentCase{16, 8, 100, 50, 10},
        ConcurrentCase{3, 7, 25, 25, 11}, ConcurrentCase{5, 5, 30, 35, 12}));

TEST(JoinConcurrent, AllJoinersShareOneGateway) {
  // Stress the seed: a 1-node network with 40 simultaneous joiners, all
  // bootstrapping through the seed (Section 6.1 network initialization,
  // concurrent flavor).
  const IdParams params{4, 6};
  World world(params, 48);
  auto ids = make_ids(params, 41, /*seed=*/31);
  Rng rng(9);
  initialize_network(world, ids, rng, /*concurrent=*/true);

  EXPECT_TRUE(world.overlay.all_in_system());
  const auto report = audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);
}

TEST(JoinConcurrent, SameSuffixClusterJoinsDependently) {
  // Force heavy dependence: every joiner shares a 3-digit suffix absent
  // from V, so all of them fight over the same C-set tree.
  const IdParams params{4, 8};
  World world(params, 96);

  UniqueIdGenerator gen(params, 77);
  std::vector<NodeId> v_ids;
  // V avoids the suffix 3.3.3 (LSB digits 3,3,3).
  while (v_ids.size() < 40) {
    NodeId id = gen.next();
    if (id.digit(0) == 3 && id.digit(1) == 3 && id.digit(2) == 3) continue;
    v_ids.push_back(id);
  }
  std::vector<NodeId> w_ids;
  while (w_ids.size() < 12) {
    NodeId id = gen.next();
    if (!(id.digit(0) == 3 && id.digit(1) == 3 && id.digit(2) == 3)) continue;
    w_ids.push_back(id);
  }
  // Manufacture enough suffix-3.3.3 ids if the generator was unlucky.
  Rng rng(123);
  while (w_ids.size() < 12) {
    std::vector<Digit> digits(params.num_digits);
    digits[0] = digits[1] = digits[2] = 3;
    for (std::size_t i = 3; i < digits.size(); ++i)
      digits[i] = static_cast<Digit>(rng.next_below(params.base));
    NodeId id(digits, params);
    if (gen.reserve(id)) w_ids.push_back(id);
  }

  build_consistent_network(world.overlay, v_ids);
  join_concurrently(world, w_ids, v_ids, rng, /*window_ms=*/0.0);

  EXPECT_TRUE(world.overlay.all_in_system());
  const auto report = audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);

  // They all landed in the same dependent group (same C-set tree family).
  SuffixTrie v_trie(params);
  for (const NodeId& id : v_ids) v_trie.insert(id);
  const auto groups = group_dependent(v_trie, w_ids);
  EXPECT_EQ(groups.size(), 1u);

  // And the C-set tree conditions hold for each notify-set group.
  for (const auto& [omega, members] : group_by_notify_set(v_trie, w_ids)) {
    const auto violations =
        check_cset_conditions(view_of(world.overlay), v_trie, omega, members);
    EXPECT_TRUE(violations.empty())
        << (violations.empty() ? "" : violations.front());
  }
}

TEST(JoinConcurrent, StaggeredStartsOverlapJoiningPeriods) {
  // Joins start within a window comparable to a join's duration, producing
  // genuinely overlapping joining periods (Definition 3.3) rather than a
  // single burst.
  const IdParams params{4, 6};
  World world(params, 96);
  auto ids = make_ids(params, 80, /*seed=*/55);
  const std::vector<NodeId> v_ids(ids.begin(), ids.begin() + 30);
  const std::vector<NodeId> w_ids(ids.begin() + 30, ids.end());
  build_consistent_network(world.overlay, v_ids);

  Rng rng(8);
  join_concurrently(world, w_ids, v_ids, rng, /*window_ms=*/800.0);

  EXPECT_TRUE(world.overlay.all_in_system());
  const auto report = audit(world.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);
}

}  // namespace
}  // namespace hcube
