// Targeted coverage of the protocol's rarer code paths, plus edge-of-the-
// parameter-space cases and a paper-scale soak.
#include <gtest/gtest.h>

#include "analysis/join_cost.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::audit;
using testing::make_ids;

TEST(ProtocolPaths, SpeNotiPathExercisedAndRare) {
  // Seed 62 of this exact workload drives a joiner through the
  // SpeNotiMsg/SpeNotiRlyMsg path (Figures 10-12): an S-node y sets the
  // flag because the notifier's entry holds a competitor, and the notifier
  // announces y to that competitor. The paper's footnote 8 observes that
  // "SpeNotiMsg is rarely sent" — across the first 100 seeds of this
  // workload we see it on exactly two, reproducing that rarity. (The
  // triggering seed is ordering-sensitive; the dense-index storage refactor
  // changed container iteration orders and moved it from 29 to 62.)
  const IdParams params{4, 6};
  World world(params, 120, {}, 62);
  UniqueIdGenerator gen(params, 6200);
  std::vector<NodeId> v, w;
  for (int i = 0; i < 30; ++i) v.push_back(gen.next());
  for (int i = 0; i < 60; ++i) w.push_back(gen.next());
  build_consistent_network(world.overlay, v);
  Rng rng(62);
  join_concurrently(world, w, v, rng);

  EXPECT_GT(world.overlay.sent_of(MessageType::kSpeNoti), 0u);
  EXPECT_EQ(world.overlay.sent_of(MessageType::kSpeNoti),
            world.overlay.sent_of(MessageType::kSpeNotiRly));
  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(audit(world.overlay).consistent());
}

TEST(ProtocolPaths, JoinWaitDeferralsHappenAndResolve) {
  // Figure 6's "else Q_j := Q_j ∪ {x}" branch: a JoinWaitMsg landing at a
  // T-node is parked until the receiver becomes an S-node (Figure 13 then
  // answers it). Under a concurrent wave this is common; every deferral
  // must still be answered exactly once (JoinWait == JoinWaitRly totals).
  const IdParams params{4, 6};
  World world(params, 120, {}, 5);
  UniqueIdGenerator gen(params, 500);
  std::vector<NodeId> v, w;
  for (int i = 0; i < 30; ++i) v.push_back(gen.next());
  for (int i = 0; i < 60; ++i) w.push_back(gen.next());

  std::uint64_t deferrals = 0;
  world.overlay.on_message = [&](const NodeId&, const NodeId& to,
                                 const MessageBody& body) {
    if (type_of(body) != MessageType::kJoinWait) return;
    const Node* receiver = world.overlay.find(to);
    if (receiver != nullptr && !receiver->is_s_node()) ++deferrals;
  };
  build_consistent_network(world.overlay, v);
  Rng rng(5);
  join_concurrently(world, w, v, rng);

  EXPECT_GT(deferrals, 0u);
  EXPECT_EQ(world.overlay.sent_of(MessageType::kJoinWait),
            world.overlay.sent_of(MessageType::kJoinWaitRly));
  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(audit(world.overlay).consistent());
}

TEST(ProtocolPaths, NegativeJoinWaitChains) {
  // Two joiners with the same notification entry race: the loser receives
  // a negative JoinWaitRlyMsg naming the winner and re-waits on it
  // (Figure 7's negative branch). Force the race with identical-suffix
  // joiners and simultaneous starts.
  const IdParams params{4, 8};
  UniqueIdGenerator gen(params, 7);
  std::vector<NodeId> v;
  while (v.size() < 20) {
    NodeId id = gen.next();
    if (id.digit(0) == 2 && id.digit(1) == 2) continue;  // keep 22* free
    v.push_back(id);
  }
  std::vector<NodeId> w;
  Rng digit_rng(3);
  while (w.size() < 6) {
    std::vector<Digit> digits(params.num_digits);
    digits[0] = digits[1] = 2;
    for (std::size_t i = 2; i < digits.size(); ++i)
      digits[i] = static_cast<Digit>(digit_rng.next_below(4));
    NodeId id(digits, params);
    if (gen.reserve(id)) w.push_back(id);
  }

  World world(params, 32);
  build_consistent_network(world.overlay, v);
  std::uint64_t negatives = 0;
  world.overlay.on_message = [&](const NodeId&, const NodeId&,
                                 const MessageBody& body) {
    if (const auto* rly = std::get_if<JoinWaitRlyMsg>(&body))
      if (!rly->positive) ++negatives;
  };
  Rng rng(9);
  join_concurrently(world, w, v, rng, /*window_ms=*/0.0);

  EXPECT_GT(negatives, 0u);  // the race actually happened
  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(audit(world.overlay).consistent());
}

TEST(ProtocolPaths, CopyChainEndsAtTNode) {
  // Figure 5's "s == T" exit: a joiner's copy chain reaches a table entry
  // holding a T-node, and the JoinWaitMsg goes to that T-node (which parks
  // it in Q_j). Detect via a JoinWaitMsg received by a node in status
  // copying or waiting.
  const IdParams params{2, 8};  // dense: suffix collisions guaranteed
  World world(params, 80, {}, 3);
  auto ids = make_ids(params, 70, 33);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 20);
  const std::vector<NodeId> w(ids.begin() + 20, ids.end());

  bool wait_hit_tnode = false;
  world.overlay.on_message = [&](const NodeId&, const NodeId& to,
                                 const MessageBody& body) {
    if (type_of(body) != MessageType::kJoinWait) return;
    const Node* receiver = world.overlay.find(to);
    if (receiver != nullptr && is_joining(receiver->status()))
      wait_hit_tnode = true;
  };
  build_consistent_network(world.overlay, v);
  Rng rng(13);
  join_concurrently(world, w, v, rng, /*window_ms=*/0.0);
  EXPECT_TRUE(wait_hit_tnode);
  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(audit(world.overlay).consistent());
}

TEST(ProtocolPaths, SingleDigitIdSpace) {
  // d = 1: the ID space holds exactly b nodes; every join's notification
  // set is all of V and tables are a single level.
  const IdParams params{16, 1};
  World world(params, 16);
  auto ids = make_ids(params, 16, 3);  // the full space
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 4);
  const std::vector<NodeId> w(ids.begin() + 4, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(1);
  join_concurrently(world, w, v, rng);
  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(audit(world.overlay).consistent());
}

TEST(ProtocolPaths, LargeBase) {
  const IdParams params{64, 3};
  World world(params, 80);
  auto ids = make_ids(params, 80, 9);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 40);
  const std::vector<NodeId> w(ids.begin() + 40, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(2);
  join_concurrently(world, w, v, rng);
  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(audit(world.overlay).consistent());
}

TEST(ProtocolPaths, MisuseIsRejected) {
  const IdParams params{4, 4};
  World world(params, 8);
  auto ids = make_ids(params, 3, 41);
  build_consistent_network(world.overlay, {ids[0], ids[1]});
  // Duplicate membership.
  EXPECT_DEATH(world.overlay.add_node(ids[0]), "duplicate");
  // Joining via itself.
  Node& joiner = world.overlay.add_node(ids[2]);
  EXPECT_DEATH(joiner.start_join(ids[2]), "self");
  // Starting twice.
  joiner.start_join(ids[0]);
  EXPECT_DEATH(joiner.start_join(ids[1]), "already started");
}

TEST(ProtocolPaths, PaperScaleSoak) {
  // The paper's smaller simulation setup end to end: n = 3096 members,
  // m = 1000 concurrent joiners, b = 16, d = 8 (synthetic latencies keep
  // this under a second). Theorems 1-3 all checked.
  const IdParams params{16, 8};
  World world(params, 4200, {}, 2003);
  auto ids = make_ids(params, 4096, 2003);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 3096);
  const std::vector<NodeId> w(ids.begin() + 3096, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(5);
  join_concurrently(world, w, v, rng, /*window_ms=*/0.0);

  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(check_consistency(view_of(world.overlay)).consistent());
  double total_noti = 0.0;
  for (const NodeId& x : w) {
    const JoinStats& s = world.overlay.at(x).join_stats();
    EXPECT_LE(s.copy_plus_wait(), theorem3_bound(params));
    total_noti += static_cast<double>(s.sent_of(MessageType::kJoinNoti));
  }
  const double avg = total_noti / static_cast<double>(w.size());
  const double bound =
      expected_join_noti_concurrent_bound(params, v.size(), w.size());
  EXPECT_LT(avg, bound);
  EXPECT_GT(avg, 1.0);  // sanity: concurrent joins do real notification work
}

}  // namespace
}  // namespace hcube
