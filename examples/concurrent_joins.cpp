// Concurrent joins and C-set trees — the heart of the paper.
//
// Part 1 replays the worked example of Section 3.3 (b = 8, d = 5):
//   V = {72430, 10353, 62332, 13141, 31701},
//   W = {10261, 47051, 00261} joining concurrently and *dependently*
//   (10261 and 00261 both believe they might be the only *261 node).
// It prints the C-set tree template C(V, W) (the paper's Figure 2(b)), the
// realization cset(V, W) after the protocol quiesces (one concrete instance
// of Figure 2(c)), and verifies conditions (1)-(3) of Section 3.3.
//
// Part 2 scales up: 150 nodes join a 150-node network at the same instant.
//
// Build & run:  ./build/examples/concurrent_joins
#include <cstdio>

#include "core/builder.h"
#include "core/consistency.h"
#include "core/cset_tree.h"
#include "core/routing.h"
#include "topology/latency.h"

using namespace hcube;

int main() {
  const IdParams params{8, 5};
  World world(params, ProtocolOptions{},
              std::make_unique<SyntheticLatency>(512, 5.0, 120.0, 11));
  Overlay& overlay = world.overlay;

  std::vector<NodeId> v, w;
  for (const char* s : {"72430", "10353", "62332", "13141", "31701"})
    v.push_back(*NodeId::from_string(s, params));
  for (const char* s : {"10261", "47051", "00261"})
    w.push_back(*NodeId::from_string(s, params));

  build_consistent_network(overlay, v);

  SuffixTrie v_trie(params);
  for (const NodeId& id : v) v_trie.insert(id);

  std::printf("=== Part 1: the paper's Section 3.3 example ===\n");
  for (const NodeId& x : w) {
    const Suffix omega = notify_suffix(v_trie, x);
    std::printf("joiner %s: notification set V_%s (%zu nodes)\n",
                x.to_string(params).c_str(),
                suffix_to_string(omega, params).c_str(),
                v_trie.count_with_suffix(omega));
  }

  const CSetTree templ = CSetTree::make_template(params, Suffix{1}, w);
  std::printf("\nC-set tree template C(V, W) — Figure 2(b):\n%s",
              templ.to_string(params).c_str());

  // All three joins start at the same instant: dependent, concurrent.
  Rng rng(3);
  join_concurrently(world, w, v, rng, /*window_ms=*/0.0);
  std::printf("\nall joined: %s\n",
              overlay.all_in_system() ? "yes" : "NO");

  const CSetTree realized =
      CSetTree::realize(view_of(overlay), v_trie, Suffix{1}, w);
  std::printf("\nrealized cset(V, W) — an instance of Figure 2(c):\n%s",
              realized.to_string(params).c_str());

  const auto violations =
      check_cset_conditions(view_of(overlay), v_trie, Suffix{1}, w);
  std::printf("\nconditions (1)-(3) of Section 3.3: %s\n",
              violations.empty() ? "all hold" : violations.front().c_str());

  const auto report = check_consistency(view_of(overlay));
  std::printf("network consistent: %s\n\n",
              report.consistent() ? "yes" : "NO");

  // === Part 2: a join storm ===
  std::printf("=== Part 2: 150 nodes join a 150-node network at t=0 ===\n");
  World storm_world(params, ProtocolOptions{},
                    std::make_unique<SyntheticLatency>(512, 5.0, 120.0, 13));
  Overlay& storm = storm_world.overlay;
  UniqueIdGenerator gen(params, 99);
  std::vector<NodeId> v2, w2;
  for (int i = 0; i < 150; ++i) v2.push_back(gen.next());
  for (int i = 0; i < 150; ++i) w2.push_back(gen.next());
  build_consistent_network(storm, v2);
  join_concurrently(storm_world, w2, v2, rng, /*window_ms=*/0.0);

  SuffixTrie v2_trie(params);
  for (const NodeId& id : v2) v2_trie.insert(id);
  const auto dependent_groups = group_dependent(v2_trie, w2);
  std::printf("dependent-join groups (Lemma 5.5 partition): %zu\n",
              dependent_groups.size());

  std::size_t checked = 0, ok = 0;
  for (const auto& [omega, members] : group_by_notify_set(v2_trie, w2)) {
    ++checked;
    if (check_cset_conditions(view_of(storm), v2_trie, omega, members)
            .empty())
      ++ok;
  }
  std::printf("C-set trees verified: %zu/%zu satisfy conditions (1)-(3)\n",
              ok, checked);

  const auto report2 = check_consistency(view_of(storm));
  std::printf("all 300 nodes in system: %s; network consistent: %s\n",
              storm.all_in_system() ? "yes" : "NO",
              report2.consistent() ? "yes" : "NO");
  return report.consistent() && report2.consistent() && ok == checked ? 0 : 1;
}
