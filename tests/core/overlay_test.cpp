// Overlay runtime: registry, scheduling, metrics accounting, views.
#include "core/overlay.h"

#include <gtest/gtest.h>

#include <atomic>

#include "core/routing.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::make_ids;

TEST(Overlay, RegistryLookups) {
  const IdParams params{4, 4};
  World world(params, 8);
  auto ids = make_ids(params, 3, 1);
  build_consistent_network(world.overlay, {ids[0], ids[1]});
  EXPECT_NE(world.overlay.find(ids[0]), nullptr);
  EXPECT_EQ(world.overlay.find(ids[2]), nullptr);
  EXPECT_EQ(world.overlay.at(ids[1]).id(), ids[1]);
  EXPECT_DEATH(world.overlay.at(ids[2]), "unknown");
  EXPECT_NE(world.overlay.host_of(ids[0]), world.overlay.host_of(ids[1]));
}

TEST(Overlay, ScheduleJoinHonorsStartTime) {
  const IdParams params{4, 4};
  World world(params, 8);
  auto ids = make_ids(params, 2, 2);
  world.overlay.add_node(ids[0]).become_seed();
  Node& joiner = world.schedule_join(ids[1], ids[0], 250.0);
  world.net.driver().schedule_action(249.0, [&] {
    EXPECT_EQ(joiner.status(), NodeStatus::kCopying);  // not yet started
    EXPECT_LT(joiner.join_stats().t_begin, 0.0);       // unset
  });
  world.drain();
  EXPECT_TRUE(joiner.is_s_node());
  EXPECT_DOUBLE_EQ(joiner.join_stats().t_begin, 250.0);
}

TEST(Overlay, EverySendIsCountedOnce) {
  // Overlay::send_message is the one place a send is counted and sized: an
  // on_message subscriber sees exactly what totals() reports, and the
  // nodes' big-request counts are the same sends seen per node.
  const IdParams params{4, 5};
  World world(params, 40);
  auto ids = make_ids(params, 35, 3);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 20);
  const std::vector<NodeId> w(ids.begin() + 20, ids.end());
  build_consistent_network(world.overlay, v);
  Overlay::Totals seen;
  world.overlay.on_message = [&](const NodeId&, const NodeId&,
                                 const MessageBody& body) {
    ++seen.messages;
    ++seen.sent[static_cast<std::size_t>(type_of(body))];
    seen.bytes += wire_size_bytes(body, params);
  };
  Rng rng(1);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());

  const Overlay::Totals totals = world.overlay.totals();
  EXPECT_EQ(totals.messages, seen.messages);
  EXPECT_EQ(totals.bytes, seen.bytes);
  for (std::size_t t = 0; t < kNumMessageTypes; ++t)
    EXPECT_EQ(totals.sent[t], seen.sent[t]) << t;

  for (const MessageType t : {MessageType::kCpRst, MessageType::kJoinWait,
                              MessageType::kJoinNoti}) {
    std::uint64_t per_node = 0;
    for (const auto& node : world.overlay.nodes())
      per_node += node->join_stats().sent_of(t);
    EXPECT_GT(per_node, 0u) << type_name(t);
    EXPECT_EQ(per_node, totals.sent[static_cast<std::size_t>(t)])
        << type_name(t);
  }
}

TEST(Overlay, EverySentMessageIsEventuallyDelivered) {
  const IdParams params{4, 5};
  World world(params, 30);
  auto ids = make_ids(params, 25, 5);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 15);
  const std::vector<NodeId> w(ids.begin() + 15, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(2);
  join_concurrently(world, w, v, rng);

  EXPECT_GT(world.overlay.totals().messages, 0u);
  EXPECT_EQ(world.overlay.transport().messages_delivered(),
            world.overlay.totals().messages);
}

TEST(Overlay, OnMessageHookSeesEveryMessage) {
  const IdParams params{4, 4};
  World world(params, 10);
  auto ids = make_ids(params, 8, 7);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 7);
  build_consistent_network(world.overlay, v);
  std::uint64_t seen = 0;
  world.overlay.on_message = [&](const NodeId&, const NodeId&,
                                 const MessageBody&) { ++seen; };
  world.schedule_join(ids[7], v[0], 0.0);
  world.drain();
  EXPECT_EQ(seen, world.overlay.totals().messages);
}

TEST(Overlay, LiveSizeTracksMembershipChanges) {
  const IdParams params{4, 5};
  World world(params, 20);
  auto ids = make_ids(params, 20, 9);
  build_consistent_network(world.overlay, ids);
  EXPECT_EQ(world.overlay.live_size(), 20u);
  leave_and_drain(world, ids[0]);
  EXPECT_EQ(world.overlay.live_size(), 19u);
  world.crash(ids[1]);
  EXPECT_EQ(world.overlay.live_size(), 18u);
  EXPECT_TRUE(world.overlay.all_in_system());  // departed/crashed excluded
  const NetworkView net = view_of(world.overlay);
  EXPECT_EQ(net.size(), 18u);
  EXPECT_FALSE(net.contains(ids[0]));
  EXPECT_FALSE(net.contains(ids[1]));
}

TEST(Overlay, DropFilterLosesMessagesAboveTheTransport) {
  // A filtered message is counted in totals() and seen by on_message like
  // any send, but no transport ever sees it: no sequence number, no wire
  // copy. Clearing the filter restores delivery. On one lane the overlay
  // sits on the lane's ReliableTransport, on more on the sharded facade.
  const IdParams params{4, 4};
  for (const std::uint32_t lanes : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
    hcube::World world(params, {},
                       std::make_unique<SyntheticLatency>(8, 5.0, 120.0, 42),
                       ShardedNet::Params{lanes, {}});
    auto wire_messages = [&world] {
      std::uint64_t n = 0;
      for (std::uint32_t l = 0; l < world.net.num_lanes(); ++l)
        n += world.net.lane_transport(l).messages_sent();
      return n;
    };
    auto ids = make_ids(params, 5, 11);
    const std::vector<NodeId> v(ids.begin(), ids.begin() + 3);
    {
      LaneScope scope(&world.net.lane_queue(0), 0);
      build_consistent_network(world.overlay, v);
    }
    // Lane workers fire on_message concurrently when lanes > 1.
    std::atomic<std::uint64_t> observed{0};
    world.overlay.on_message = [&observed](const NodeId&, const NodeId&,
                                           const MessageBody&) {
      ++observed;
    };

    world.overlay.set_drop_filter(
        [](const NodeId&, const NodeId&, const MessageBody&) { return true; });
    world.schedule_join(ids[3], v[0], 0.0);
    world.drain();
    // The joiner's CpRstMsg: counted and observed, then lost.
    const std::uint64_t filtered = world.overlay.totals().messages;
    EXPECT_EQ(filtered, 1u);
    EXPECT_EQ(world.overlay.sent_of(MessageType::kCpRst), 1u);
    EXPECT_EQ(observed, filtered);
    EXPECT_EQ(world.net.rel_stats().tracked_sent, 0u);
    EXPECT_EQ(wire_messages(), 0u);
    EXPECT_FALSE(world.overlay.at(ids[3]).is_s_node());

    world.overlay.set_drop_filter(nullptr);
    world.schedule_join(ids[4], v[1], world.now());
    world.drain();
    EXPECT_TRUE(world.overlay.at(ids[4]).is_s_node());
    const std::uint64_t sent = world.overlay.totals().messages - filtered;
    EXPECT_GT(sent, 0u);
    EXPECT_EQ(observed, filtered + sent);
    // Every later send reached the reliable layer and went on the wire,
    // its ack with it.
    EXPECT_EQ(world.net.rel_stats().tracked_sent, sent);
    EXPECT_EQ(wire_messages(), 2 * sent);
  }
}

TEST(SuffixTrieSome, CapIsRespected) {
  const IdParams params{2, 8};
  SuffixTrie trie(params);
  auto ids = make_ids(params, 120, 13);
  for (const auto& id : ids) trie.insert(id);
  const Suffix empty;
  EXPECT_EQ(trie.some_with_suffix(empty, 0).size(), 0u);
  EXPECT_EQ(trie.some_with_suffix(empty, 5).size(), 5u);
  EXPECT_EQ(trie.some_with_suffix(empty, 10000).size(), 120u);
  // Capped results are a prefix of the full digit-order enumeration.
  const auto all = trie.all_with_suffix(empty);
  const auto some = trie.some_with_suffix(empty, 7);
  for (std::size_t i = 0; i < 7; ++i) EXPECT_EQ(some[i], all[i]);
}

}  // namespace
}  // namespace hcube
