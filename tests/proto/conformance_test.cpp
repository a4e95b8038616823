// Protocol conformance registry (proto/conformance.h): table-driven checks
// that every MessageType round-trips through the name table, the size
// model and the codec, and that deliveries with no declared
// (status, type) contract are rejected and counted overlay-wide.
#include "proto/conformance.h"

#include <string>

#include <gtest/gtest.h>

#include "proto/codec.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::make_ids;

const IdParams kHex8{16, 8};

TableSnapshot tiny_snapshot(const IdParams& params) {
  UniqueIdGenerator gen(params, 99);
  const NodeId n = gen.next();
  TableSnapshot snap;
  snap.add(0, static_cast<std::uint8_t>(n.digit(0)), n, NeighborState::kS);
  return snap;
}

// One sample body per MessageType, in enum order. The static_asserts in
// conformance.h pin the registry to the enum; this pins the *test* to it:
// adding a message type without extending this list fails the size check.
std::vector<MessageBody> sample_bodies(const IdParams& params) {
  UniqueIdGenerator gen(params, 7);
  const NodeId a = gen.next();
  const NodeId b = gen.next();
  const TableSnapshot snap = tiny_snapshot(params);
  JoinNotiMsg noti;
  noti.table = snap;
  noti.sender_noti_level = 2;
  return {
      CpRstMsg{},
      CpRlyMsg{snap},
      JoinWaitMsg{},
      JoinWaitRlyMsg{true, a, snap},
      noti,
      JoinNotiRlyMsg{true, snap, false},
      InSysNotiMsg{},
      SpeNotiMsg{a, b},
      SpeNotiRlyMsg{a, b},
      RvNghNotiMsg{NeighborState::kT},
      RvNghNotiRlyMsg{NeighborState::kS},
      LeaveMsg{snap},
      LeaveRlyMsg{},
      NghDropMsg{},
      PingMsg{},
      PongMsg{},
      RepairQueryMsg{1, 2},
      RepairRlyMsg{1, 2, a},
      AnnounceMsg{snap},
      RelAckMsg{17},
  };
}

TEST(ConformanceRegistry, TableCoversEveryTypeInOrder) {
  for (std::size_t i = 0; i < kNumMessageTypes; ++i) {
    const auto t = static_cast<MessageType>(i);
    EXPECT_EQ(conformance_of(t).type, t) << i;
  }
}

TEST(ConformanceRegistry, EveryTypeRoundTripsThroughNameSizeAndCodec) {
  const std::vector<MessageBody> bodies = sample_bodies(kHex8);
  ASSERT_EQ(bodies.size(), kNumMessageTypes);
  UniqueIdGenerator gen(kHex8, 11);
  const NodeId sender = gen.next();

  for (std::size_t i = 0; i < bodies.size(); ++i) {
    const MessageType t = type_of(bodies[i]);
    EXPECT_EQ(static_cast<std::size_t>(t), i) << "sample body out of order";
    EXPECT_STRNE(type_name(t), "UnknownMsg") << i;

    const Message msg{sender, bodies[i], 0, 5};
    const auto bytes = encode_message(msg, kHex8);
    EXPECT_EQ(bytes.size(), wire_size_bytes(msg, kHex8)) << type_name(t);
    const auto decoded = decode_message(bytes, kHex8);
    ASSERT_TRUE(decoded.has_value()) << type_name(t);
    EXPECT_EQ(type_of(decoded->body), t);
    EXPECT_EQ(decoded->gen, 5u);
  }
}

TEST(ConformanceRegistry, PredicatesAgreeWithRegistry) {
  std::size_t big = 0;
  for (std::size_t i = 0; i < kNumMessageTypes; ++i) {
    const auto t = static_cast<MessageType>(i);
    EXPECT_EQ(is_big_request(t), conformance_of(t).big_request) << i;
    EXPECT_EQ(echoes_request_gen(t), conformance_of(t).echoes_gen) << i;
    if (conformance_of(t).big_request) ++big;
  }
  EXPECT_EQ(big, 3u);  // §5.2: CpRst, JoinWait, JoinNoti
}

TEST(ConformanceRegistry, RepliesEchoTheRequestGeneration) {
  for (std::size_t i = 0; i < kNumMessageTypes; ++i) {
    const auto t = static_cast<MessageType>(i);
    const MessageContract& c = conformance_of(t);
    if (c.has_reply) {
      EXPECT_TRUE(conformance_of(c.reply).echoes_gen) << i;
    }
  }
}

// ---- runtime rejection paths ----

TEST(ConformanceRuntime, UndeclaredDeliveryIsRejectedAndCounted) {
  const IdParams params{4, 4};
  World world(params, 8);
  auto ids = make_ids(params, 2, 21);
  build_consistent_network(world.overlay, ids);
  Node& victim = world.overlay.at(ids[0]);
  ASSERT_TRUE(victim.is_s_node());

  // RelAckMsg is transport-internal: the registry declares no status in
  // which the protocol layer may handle it. Delivery must be dropped and
  // counted, not crash.
  const HostId from = world.overlay.host_of(ids[1]);
  victim.handle(from, Message{ids[1], RelAckMsg{3}});
  EXPECT_EQ(world.overlay.conformance().rejected_of(MessageType::kRelAck), 1u);
  EXPECT_EQ(world.overlay.conformance().total_rejected(), 1u);
  EXPECT_TRUE(victim.is_s_node());  // state untouched

  // A declared pair is not counted.
  victim.handle(from, Message{ids[1], PingMsg{}});
  EXPECT_EQ(world.overlay.conformance().total_rejected(), 1u);
}

TEST(ConformanceRuntime, DepartedNodeRejectsJoinTraffic) {
  const IdParams params{4, 4};
  World world(params, 8);
  auto ids = make_ids(params, 3, 23);
  build_consistent_network(world.overlay, ids);
  leave_and_drain(world, ids[0]);
  Node& gone = world.overlay.at(ids[0]);
  ASSERT_EQ(gone.status(), NodeStatus::kDeparted);

  // kCpRst is only legal at S/L nodes; a departed receiver drops it.
  const HostId from = world.overlay.host_of(ids[1]);
  gone.handle(from, Message{ids[1], CpRstMsg{}});
  EXPECT_EQ(world.overlay.conformance().rejected_of(MessageType::kCpRst), 1u);
  // But a departed node still acks Leave (declared contract).
  gone.handle(from, Message{ids[1], LeaveMsg{tiny_snapshot(params)}});
  EXPECT_EQ(world.overlay.conformance().total_rejected(), 1u);
}

TEST(ConformanceRuntime, NormalJoinProducesNoRejections) {
  const IdParams params{4, 5};
  World world(params, 24);
  auto ids = make_ids(params, 20, 31);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 10);
  const std::vector<NodeId> w(ids.begin() + 10, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(4);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());
  EXPECT_EQ(world.overlay.conformance().total_rejected(), 0u);
}

}  // namespace
}  // namespace hcube
