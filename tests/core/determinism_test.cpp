// Reproducibility and realization-variety properties.
//
// 1. The simulation is bit-reproducible: identical seeds produce identical
//    message sequences (the foundation every pinned regression test in this
//    suite stands on).
// 2. Different interleavings realize the SAME C-set tree template
//    differently ("For different sequences of protocol message exchange,
//    different nodes could be filled into each C-set", Section 3.3) — yet
//    every realization is consistent.
#include <gtest/gtest.h>

#include "core/cset_tree.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::audit;
using testing::id_of;
using testing::make_ids;

// One protocol send, as Overlay::on_message sees it.
struct SendRecord {
  SimTime time;
  NodeId from;
  NodeId to;
  MessageType type;
  std::size_t wire_bytes;
};

std::vector<SendRecord> run_traced(std::uint64_t latency_seed,
                                   std::uint64_t workload_seed) {
  const IdParams params{4, 6};
  World world(params, 80, {}, latency_seed);
  auto ids = make_ids(params, 70, 1234);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 35);
  const std::vector<NodeId> w(ids.begin() + 35, ids.end());
  build_consistent_network(world.overlay, v);
  std::vector<SendRecord> sends;
  world.overlay.on_message = [&](const NodeId& from, const NodeId& to,
                                 const MessageBody& body) {
    sends.push_back({world.overlay.now(), from, to, type_of(body),
                     wire_size_bytes(body, params)});
  };
  Rng rng(workload_seed);
  join_concurrently(world, w, v, rng, /*window_ms=*/200.0);
  HCUBE_CHECK(world.overlay.all_in_system());
  return sends;
}

TEST(Determinism, IdenticalSeedsProduceIdenticalMessageSequences) {
  const auto a = run_traced(7, 11);
  const auto b = run_traced(7, 11);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << i;
    EXPECT_EQ(a[i].from, b[i].from) << i;
    EXPECT_EQ(a[i].to, b[i].to) << i;
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].wire_bytes, b[i].wire_bytes) << i;
  }
}

TEST(Determinism, DifferentLatencySeedsDiverge) {
  const auto a = run_traced(7, 11);
  const auto b = run_traced(8, 11);
  // Same workload, different delivery timings: the traces must differ
  // (identical traces would mean latency had no effect at all).
  bool differs = a.size() != b.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i)
    differs = a[i].time != b[i].time || a[i].from != b[i].from ||
              a[i].to != b[i].to || a[i].type != b[i].type;
  EXPECT_TRUE(differs);
}

TEST(Determinism, DifferentInterleavingsRealizeTheTemplateDifferently) {
  // The paper's Section 3.3 example under two latency seeds: the template
  // is fixed by (V, W); the realization depends on message order. Seeds 1
  // and 2 (probed) fill C_261 with 00261 and 10261 respectively.
  const IdParams params{8, 5};
  std::vector<NodeId> realized_members;
  for (const std::uint64_t seed : {1u, 2u}) {
    World world(params, 16, {}, seed);
    std::vector<NodeId> v, w;
    for (const char* s : {"72430", "10353", "62332", "13141", "31701"})
      v.push_back(id_of(s, params));
    for (const char* s : {"10261", "47051", "00261"})
      w.push_back(id_of(s, params));
    build_consistent_network(world.overlay, v);
    Rng rng(seed);
    join_concurrently(world, w, v, rng);
    ASSERT_TRUE(world.overlay.all_in_system());
    ASSERT_TRUE(audit(world.overlay).consistent());

    SuffixTrie v_trie(params);
    for (const auto& id : v) v_trie.insert(id);
    const auto tree =
        CSetTree::realize(view_of(world.overlay), v_trie, Suffix{1}, w);
    EXPECT_TRUE(tree.all_nonempty());
    for (const auto& s : tree.sets()) {
      if (suffix_to_string(s.suffix, params) == "261") {
        ASSERT_EQ(s.members.size(), 1u);
        realized_members.push_back(s.members[0]);
      }
    }
  }
  ASSERT_EQ(realized_members.size(), 2u);
  EXPECT_NE(realized_members[0], realized_members[1])
      << "expected distinct realizations of C_261 across interleavings";
}

TEST(Determinism, PaperScaleD40Soak) {
  // The paper's wide-table configuration (d = 40) end to end at reduced n:
  // exercises 160-bit IDs, 640-entry tables and the log-space analysis
  // path through the whole protocol stack.
  const IdParams params{16, 40};
  World world(params, 900, {}, 99);
  auto ids = make_ids(params, 900, 99);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 700);
  const std::vector<NodeId> w(ids.begin() + 700, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(9);
  join_concurrently(world, w, v, rng);
  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(audit(world.overlay).consistent());
}

}  // namespace
}  // namespace hcube
