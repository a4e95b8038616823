// Wire codec: round trips for all eleven message types, byte-exactness
// against the size model, and rejection of malformed inputs.
#include "proto/codec.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace hcube {
namespace {

using testing::id_of;

const IdParams kHex8{16, 8};
const IdParams kOct5{8, 5};
const IdParams kTern6{3, 6};  // non-power-of-two base: 2 bits per digit

TableSnapshot sample_snapshot(const IdParams& params) {
  TableSnapshot snap;
  UniqueIdGenerator gen(params, 77);
  const NodeId owner = gen.next();
  // Own entries on every level, plus a few cross entries.
  for (std::uint32_t i = 0; i < params.num_digits; ++i)
    snap.add(static_cast<std::uint8_t>(i),
             static_cast<std::uint8_t>(owner.digit(i)), owner,
             NeighborState::kS);
  for (int k = 0; k < 5; ++k) {
    const NodeId other = gen.next();
    const auto lvl = static_cast<std::uint8_t>(owner.csuf_len(other));
    const auto dig = static_cast<std::uint8_t>(other.digit(lvl));
    bool dup = false;
    for (const auto& e : snap.entries)
      if (e.level == lvl && e.digit == dig) dup = true;
    if (!dup) snap.add(lvl, dig, other, NeighborState::kT);
  }
  return snap;
}

void expect_roundtrip(const Message& msg, const IdParams& params) {
  const auto bytes = encode_message(msg, params);
  EXPECT_EQ(bytes.size(), wire_size_bytes(msg, params));
  const auto decoded = decode_message(bytes, params);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sender, msg.sender);
  EXPECT_EQ(type_of(decoded->body), type_of(msg.body));
  EXPECT_EQ(wire_size_bytes(*decoded, params), bytes.size());
  // Re-encoding the decoded message must be byte-identical.
  EXPECT_EQ(encode_message(*decoded, params), bytes);
}

TEST(Codec, EmptyBodiedMessages) {
  UniqueIdGenerator gen(kHex8, 1);
  const NodeId sender = gen.next();
  expect_roundtrip({sender, CpRstMsg{}}, kHex8);
  expect_roundtrip({sender, JoinWaitMsg{}}, kHex8);
  expect_roundtrip({sender, InSysNotiMsg{}}, kHex8);
}

TEST(Codec, SnapshotCarryingMessages) {
  UniqueIdGenerator gen(kHex8, 2);
  const NodeId sender = gen.next();
  const TableSnapshot snap = sample_snapshot(kHex8);

  expect_roundtrip({sender, CpRlyMsg{snap}}, kHex8);
  expect_roundtrip({sender, JoinWaitRlyMsg{true, gen.next(), snap}}, kHex8);
  expect_roundtrip({sender, JoinWaitRlyMsg{false, gen.next(), snap}}, kHex8);
  expect_roundtrip({sender, JoinNotiRlyMsg{true, snap, false}}, kHex8);
  expect_roundtrip({sender, JoinNotiRlyMsg{false, snap, true}}, kHex8);

  JoinNotiMsg noti;
  noti.table = snap;
  noti.sender_noti_level = 3;
  expect_roundtrip({sender, noti}, kHex8);
}

TEST(Codec, SnapshotContentsSurvive) {
  UniqueIdGenerator gen(kOct5, 3);
  const NodeId sender = gen.next();
  const TableSnapshot snap = sample_snapshot(kOct5);
  const auto bytes = encode_message({sender, CpRlyMsg{snap}}, kOct5);
  const auto decoded = decode_message(bytes, kOct5);
  ASSERT_TRUE(decoded.has_value());
  const auto& got = std::get<CpRlyMsg>(decoded->body).table;
  ASSERT_EQ(got.size(), snap.size());
  // Both are in (level, digit) order after the codec's bitmap ordering;
  // compare as sets of tuples.
  for (const auto& e : snap.entries) {
    bool found = false;
    for (const auto& g : got.entries) {
      if (g.level == e.level && g.digit == e.digit) {
        EXPECT_EQ(g.node, e.node);
        EXPECT_EQ(g.state, e.state);
        found = true;
      }
    }
    EXPECT_TRUE(found) << "entry (" << int(e.level) << "," << int(e.digit)
                       << ") lost";
  }
}

TEST(Codec, JoinNotiWithBitVector) {
  UniqueIdGenerator gen(kHex8, 4);
  const NodeId sender = gen.next();
  JoinNotiMsg noti;
  noti.table = sample_snapshot(kHex8);
  noti.sender_noti_level = 2;
  BitVec filled(kHex8.num_digits * kHex8.base);
  filled.set(3);
  filled.set(64);
  filled.set(127);
  noti.filled = filled;

  const auto bytes = encode_message({sender, noti}, kHex8);
  EXPECT_EQ(bytes.size(), wire_size_bytes(Message{sender, noti}, kHex8));
  const auto decoded = decode_message(bytes, kHex8);
  ASSERT_TRUE(decoded.has_value());
  const auto& got = std::get<JoinNotiMsg>(decoded->body);
  EXPECT_EQ(got.sender_noti_level, 2);
  ASSERT_TRUE(got.filled.has_value());
  EXPECT_EQ(*got.filled, filled);
}

TEST(Codec, SpeNotiAndReverseMessages) {
  UniqueIdGenerator gen(kHex8, 5);
  const NodeId sender = gen.next();
  expect_roundtrip({sender, SpeNotiMsg{gen.next(), gen.next()}}, kHex8);
  expect_roundtrip({sender, SpeNotiRlyMsg{gen.next(), gen.next()}}, kHex8);
  expect_roundtrip({sender, RvNghNotiMsg{NeighborState::kT}}, kHex8);
  expect_roundtrip({sender, RvNghNotiMsg{NeighborState::kS}}, kHex8);
  expect_roundtrip({sender, RvNghNotiRlyMsg{NeighborState::kS}}, kHex8);
}

TEST(Codec, SpeNotiPayloadSurvives) {
  UniqueIdGenerator gen(kHex8, 6);
  const NodeId sender = gen.next();
  const NodeId x = gen.next(), y = gen.next();
  const auto decoded =
      decode_message(encode_message({sender, SpeNotiMsg{x, y}}, kHex8), kHex8);
  ASSERT_TRUE(decoded.has_value());
  const auto& got = std::get<SpeNotiMsg>(decoded->body);
  EXPECT_EQ(got.x, x);
  EXPECT_EQ(got.y, y);
}

TEST(Codec, LeaveProtocolMessages) {
  UniqueIdGenerator gen(kHex8, 14);
  const NodeId sender = gen.next();
  expect_roundtrip({sender, LeaveMsg{sample_snapshot(kHex8)}}, kHex8);
  expect_roundtrip({sender, LeaveMsg{}}, kHex8);  // empty candidate set
  expect_roundtrip({sender, LeaveRlyMsg{}}, kHex8);
  expect_roundtrip({sender, NghDropMsg{}}, kHex8);
}

TEST(Codec, RecoveryMessages) {
  UniqueIdGenerator gen(kHex8, 15);
  const NodeId sender = gen.next();
  expect_roundtrip({sender, PingMsg{}}, kHex8);
  expect_roundtrip({sender, PongMsg{}}, kHex8);
  expect_roundtrip({sender, RepairQueryMsg{3, 7}}, kHex8);
  expect_roundtrip({sender, RepairRlyMsg{3, 7, NodeId{}}}, kHex8);
  expect_roundtrip({sender, RepairRlyMsg{2, 5, gen.next()}}, kHex8);
  expect_roundtrip({sender, AnnounceMsg{sample_snapshot(kHex8)}}, kHex8);

  // Payload integrity.
  const NodeId cand = gen.next();
  const auto decoded = decode_message(
      encode_message({sender, RepairRlyMsg{2, cand.digit(2), cand}}, kHex8),
      kHex8);
  ASSERT_TRUE(decoded.has_value());
  const auto& got = std::get<RepairRlyMsg>(decoded->body);
  EXPECT_EQ(got.level, 2);
  EXPECT_EQ(got.candidate, cand);
}

TEST(Codec, NonPowerOfTwoBase) {
  UniqueIdGenerator gen(kTern6, 7);
  const NodeId sender = gen.next();
  expect_roundtrip({sender, CpRlyMsg{sample_snapshot(kTern6)}}, kTern6);
}

TEST(Codec, LargeIdSpace) {
  const IdParams params{16, 40};
  UniqueIdGenerator gen(params, 8);
  const NodeId sender = gen.next();
  expect_roundtrip({sender, JoinWaitRlyMsg{true, gen.next(),
                                           sample_snapshot(params)}},
                   params);
}

TEST(Codec, RejectsMalformedInput) {
  UniqueIdGenerator gen(kHex8, 9);
  const NodeId sender = gen.next();
  auto bytes = encode_message({sender, CpRlyMsg{sample_snapshot(kHex8)}},
                              kHex8);

  // Truncation at every prefix length must fail, not crash.
  for (std::size_t len = 0; len < bytes.size(); len += 7) {
    std::vector<std::uint8_t> cut(bytes.begin(),
                                  bytes.begin() + static_cast<long>(len));
    EXPECT_FALSE(decode_message(cut, kHex8).has_value()) << "len " << len;
  }
  // Bad magic.
  auto bad = bytes;
  bad[0] = 'X';
  EXPECT_FALSE(decode_message(bad, kHex8).has_value());
  // Bad version.
  bad = bytes;
  bad[4] = 99;
  EXPECT_FALSE(decode_message(bad, kHex8).has_value());
  // Unknown type.
  bad = bytes;
  bad[5] = 42;
  EXPECT_FALSE(decode_message(bad, kHex8).has_value());
  // Trailing garbage.
  bad = bytes;
  bad.push_back(0);
  EXPECT_FALSE(decode_message(bad, kHex8).has_value());
}

TEST(Codec, RejectsWrongParams) {
  // A message encoded for one ID shape must not decode under another.
  UniqueIdGenerator gen(kHex8, 10);
  const auto bytes = encode_message({gen.next(), JoinWaitMsg{}}, kHex8);
  EXPECT_FALSE(decode_message(bytes, IdParams{16, 12}).has_value());
}

TEST(Codec, FuzzRandomBytesNeverCrash) {
  Rng rng(11);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> junk(rng.next_below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    // Valid-ish header sometimes, to reach deeper parse paths.
    if (junk.size() >= 6 && trial % 3 == 0) {
      junk[0] = 'H';
      junk[1] = 'C';
      junk[2] = 'U';
      junk[3] = 'B';
      junk[4] = 1;
      junk[5] = static_cast<std::uint8_t>(rng.next_below(11));
    }
    (void)decode_message(junk, kHex8);  // must not crash or CHECK-fail
  }
  SUCCEED();
}

TEST(Codec, SimulatedJoinTrafficRoundTrips) {
  // Every message the protocol actually produces during a join wave must
  // round-trip bit-exactly (codec completeness against real traffic).
  using testing::World;
  using testing::make_ids;
  const IdParams params{4, 6};
  ProtocolOptions options;
  options.snapshot_policy = SnapshotPolicy::kBitVector;
  World world(params, 40, options);
  auto ids = make_ids(params, 30, 12);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 20);
  const std::vector<NodeId> w(ids.begin() + 20, ids.end());
  build_consistent_network(world.overlay, v);

  std::size_t checked = 0;
  world.overlay.on_message = [&](const NodeId& from, const NodeId&,
                                 const MessageBody& body) {
    const Message msg{from, body};
    const auto bytes = encode_message(msg, params);
    ASSERT_EQ(bytes.size(), wire_size_bytes(msg, params));
    const auto decoded = decode_message(bytes, params);
    ASSERT_TRUE(decoded.has_value());
    ASSERT_EQ(encode_message(*decoded, params), bytes);
    ++checked;
  };
  Rng rng(13);
  join_concurrently(world, w, v, rng);
  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_GT(checked, 100u);
}

}  // namespace
}  // namespace hcube
