// C-set trees: Definitions 3.9 (template), 5.1 (realization) and the
// grouping machinery of Definitions 3.4-3.6 / Lemma 5.5.
#include "core/cset_tree.h"

#include <gtest/gtest.h>

#include "core/builder.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::id_of;
using testing::make_ids;

const IdParams kOct5{8, 5};

std::vector<NodeId> paper_v() {
  std::vector<NodeId> v;
  for (const char* s : {"72430", "10353", "62332", "13141", "31701"})
    v.push_back(id_of(s, kOct5));
  return v;
}

TEST(CSetTree, TemplateMatchesFigure2b) {
  // W = {10261, 47051, 00261} joining the paper's V: the template rooted at
  // V_1 has C-sets C_61, C_51, C_261, C_051, C_0261, C_7051, C_00261,
  // C_10261, C_47051 (Figure 2(b)).
  std::vector<NodeId> w{id_of("10261", kOct5), id_of("47051", kOct5),
                        id_of("00261", kOct5)};
  const CSetTree tree = CSetTree::make_template(kOct5, Suffix{1}, w);

  std::vector<std::string> suffixes;
  for (const auto& s : tree.sets())
    suffixes.push_back(suffix_to_string(s.suffix, kOct5));
  const std::vector<std::string> expected{
      "51", "61", "051", "261", "7051", "0261", "47051", "00261", "10261"};
  ASSERT_EQ(suffixes.size(), expected.size());
  for (const auto& e : expected)
    EXPECT_NE(std::find(suffixes.begin(), suffixes.end(), e), suffixes.end())
        << "missing C-set " << e;

  // Template members are the W subsets: C_261 = {10261, 00261}.
  for (const auto& s : tree.sets()) {
    if (suffix_to_string(s.suffix, kOct5) == "261") {
      EXPECT_EQ(s.members.size(), 2u);
    }
    if (suffix_to_string(s.suffix, kOct5) == "7051") {
      EXPECT_EQ(s.members.size(), 1u);
    }
  }
}

TEST(CSetTree, TemplateLeavesAreNodeIds) {
  std::vector<NodeId> w{id_of("10261", kOct5), id_of("00261", kOct5)};
  const CSetTree tree = CSetTree::make_template(kOct5, Suffix{1}, w);
  // Each leaf C-set's suffix must be a full node ID in W.
  std::size_t leaves = 0;
  for (const auto& s : tree.sets()) {
    if (!s.children.empty()) continue;
    ++leaves;
    EXPECT_EQ(s.suffix.size(), kOct5.num_digits);
  }
  EXPECT_EQ(leaves, w.size());
}

TEST(CSetTree, NotifySuffixGroups) {
  // Second example of Section 3.3: W = {10261, 00261, 67320, 11445} splits
  // into trees rooted at V_1, V_0 and V.
  SuffixTrie v_trie(kOct5);
  for (const auto& id : paper_v()) v_trie.insert(id);
  std::vector<NodeId> w{id_of("10261", kOct5), id_of("00261", kOct5),
                        id_of("67320", kOct5), id_of("11445", kOct5)};
  const auto groups = group_by_notify_set(v_trie, w);
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].first, Suffix{1});
  EXPECT_EQ(groups[0].second.size(), 2u);  // 10261, 00261
  EXPECT_EQ(groups[1].first, Suffix{0});
  EXPECT_EQ(groups[2].first, Suffix{});
}

TEST(CSetTree, DependentGrouping) {
  SuffixTrie v_trie(kOct5);
  for (const auto& id : paper_v()) v_trie.insert(id);
  // 10261 and 00261 share V_1; 11445's notification set is all of V, which
  // intersects everything; 67320's is V_0. So all four are (transitively)
  // dependent through 11445.
  std::vector<NodeId> w{id_of("10261", kOct5), id_of("00261", kOct5),
                        id_of("67320", kOct5), id_of("11445", kOct5)};
  EXPECT_EQ(group_dependent(v_trie, w).size(), 1u);

  // Without 11445 the V_1 pair and 67320 are independent.
  std::vector<NodeId> w2{id_of("10261", kOct5), id_of("00261", kOct5),
                         id_of("67320", kOct5)};
  EXPECT_EQ(group_dependent(v_trie, w2).size(), 2u);
}

TEST(CSetTree, RealizedTreeAfterProtocolRun) {
  const IdParams params = kOct5;
  World world(params, 16);
  const auto v = paper_v();
  std::vector<NodeId> w{id_of("10261", params), id_of("47051", params),
                        id_of("00261", params)};
  build_consistent_network(world.overlay, v);
  Rng rng(10);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());

  SuffixTrie v_trie(params);
  for (const auto& id : v) v_trie.insert(id);
  const CSetTree realized =
      CSetTree::realize(view_of(world.overlay), v_trie, Suffix{1}, w);

  // Condition (1): same structure as the template, no empty C-sets.
  const CSetTree templ = CSetTree::make_template(params, Suffix{1}, w);
  EXPECT_TRUE(realized.same_structure(templ));
  EXPECT_TRUE(realized.all_nonempty()) << realized.to_string(params);

  // Root members are V_1 = {13141, 31701}.
  EXPECT_EQ(realized.root_members().size(), 2u);

  // The leaf for each joiner contains exactly that joiner.
  for (const auto& s : realized.sets()) {
    if (s.suffix.size() == params.num_digits) {
      ASSERT_EQ(s.members.size(), 1u);
      // A full-length suffix determines the ID completely.
      EXPECT_TRUE(s.members[0].has_suffix(s.suffix));
    }
  }
}

TEST(CSetTree, ConditionsDetectSabotage) {
  // Run the protocol to a correct state, then sabotage one root member's
  // table copy and verify condition (2) catches it.
  const IdParams params = kOct5;
  World world(params, 16);
  const auto v = paper_v();
  std::vector<NodeId> w{id_of("10261", params), id_of("00261", params)};
  build_consistent_network(world.overlay, v);
  Rng rng(20);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());

  SuffixTrie v_trie(params);
  for (const auto& id : v) v_trie.insert(id);
  ASSERT_TRUE(check_cset_conditions(view_of(world.overlay), v_trie, Suffix{1},
                                    w)
                  .empty());

  // Sabotaged view: replace 13141's table with one whose (1, 6) entry is
  // empty (it should hold a node with suffix 61).
  const NodeId victim = id_of("13141", params);
  NeighborTable broken(params, victim);
  world.overlay.at(victim).table().for_each_filled(
      [&](std::uint32_t i, std::uint32_t j, const NodeId& n,
          NeighborState st) {
        if (i == 1 && j == 6) return;
        broken.set(i, j, n, st);
      });
  NetworkView view(params);
  for (const auto& node : world.overlay.nodes()) {
    view.add(node->id() == victim ? &broken : &node->table());
  }
  const auto violations = check_cset_conditions(view, v_trie, Suffix{1}, w);
  EXPECT_FALSE(violations.empty());
}

TEST(CSetTree, RandomizedRealizationSatisfiesConditions) {
  const IdParams params{4, 6};
  for (std::uint64_t seed : {1u, 2u, 3u}) {
    World world(params, 96, {}, seed);
    auto ids = make_ids(params, 80, seed + 100);
    const std::vector<NodeId> v(ids.begin(), ids.begin() + 40);
    const std::vector<NodeId> w(ids.begin() + 40, ids.end());
    build_consistent_network(world.overlay, v);
    Rng rng(seed);
    join_concurrently(world, w, v, rng);
    ASSERT_TRUE(world.overlay.all_in_system());

    SuffixTrie v_trie(params);
    for (const auto& id : v) v_trie.insert(id);
    for (const auto& [omega, members] : group_by_notify_set(v_trie, w)) {
      const auto violations = check_cset_conditions(view_of(world.overlay),
                                                    v_trie, omega, members);
      EXPECT_TRUE(violations.empty())
          << "seed " << seed << ": "
          << (violations.empty() ? "" : violations.front());
    }
  }
}

}  // namespace
}  // namespace hcube
