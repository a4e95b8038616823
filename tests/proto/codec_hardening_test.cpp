// Codec hardening (robustness): decode_message() must be total. For every
// one of the twenty message types, every strict-prefix truncation returns
// nullopt and seeded random bit flips never abort — decode may succeed or
// fail, but it never CHECKs or crashes. Also pins the reliability
// envelope: rel_seq and gen survive the round trip.
#include "proto/codec.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "test_util.h"
#include "util/rng.h"

namespace hcube {
namespace {

const IdParams kHex8{16, 8};

TableSnapshot sample_snapshot(const IdParams& params, std::uint64_t seed) {
  TableSnapshot snap;
  UniqueIdGenerator gen(params, seed);
  const NodeId owner = gen.next();
  for (std::uint32_t i = 0; i < params.num_digits; ++i)
    snap.add(static_cast<std::uint8_t>(i),
             static_cast<std::uint8_t>(owner.digit(i)), owner,
             NeighborState::kS);
  for (int k = 0; k < 4; ++k) {
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

// One representative message per type, non-trivial payloads where the type
// has any.
std::vector<Message> one_of_each(const IdParams& params) {
  UniqueIdGenerator gen(params, 99);
  const NodeId sender = gen.next();
  const NodeId a = gen.next(), b = gen.next();
  const TableSnapshot snap = sample_snapshot(params, 101);

  JoinNotiMsg noti;
  noti.table = snap;
  noti.sender_noti_level = 2;
  BitVec filled(params.num_digits * params.base);
  filled.set(1);
  filled.set(params.num_digits * params.base - 1);
  noti.filled = filled;

  std::vector<Message> all;
  all.push_back({sender, CpRstMsg{}});
  all.push_back({sender, CpRlyMsg{snap}});
  all.push_back({sender, JoinWaitMsg{}});
  all.push_back({sender, JoinWaitRlyMsg{true, a, snap}});
  all.push_back({sender, noti});
  all.push_back({sender, JoinNotiRlyMsg{true, snap, true}});
  all.push_back({sender, InSysNotiMsg{}});
  all.push_back({sender, SpeNotiMsg{a, b}});
  all.push_back({sender, SpeNotiRlyMsg{a, b}});
  all.push_back({sender, RvNghNotiMsg{NeighborState::kT}});
  all.push_back({sender, RvNghNotiRlyMsg{NeighborState::kS}});
  all.push_back({sender, LeaveMsg{snap}});
  all.push_back({sender, LeaveRlyMsg{}});
  all.push_back({sender, NghDropMsg{}});
  all.push_back({sender, PingMsg{}});
  all.push_back({sender, PongMsg{}});
  all.push_back({sender, RepairQueryMsg{2, 5}});
  all.push_back({sender, RepairRlyMsg{2, 5, a}});
  all.push_back({sender, AnnounceMsg{snap}});
  all.push_back({sender, RelAckMsg{12345}});
  return all;
}

TEST(CodecHardening, CoversEveryMessageType) {
  const auto all = one_of_each(kHex8);
  ASSERT_EQ(all.size(), kNumMessageTypes);
  std::vector<bool> seen(kNumMessageTypes, false);
  for (const Message& m : all)
    seen[static_cast<std::size_t>(type_of(m.body))] = true;
  for (std::size_t t = 0; t < kNumMessageTypes; ++t)
    EXPECT_TRUE(seen[t]) << type_name(static_cast<MessageType>(t));
}

TEST(CodecHardening, EveryStrictPrefixIsRejected) {
  // The format is self-delimiting with no trailing slack, so no strict
  // prefix of a valid encoding can itself be valid — and none may abort.
  for (const Message& msg : one_of_each(kHex8)) {
    const auto bytes = encode_message(msg, kHex8);
    ASSERT_TRUE(decode_message(bytes, kHex8).has_value())
        << type_name(type_of(msg.body));
    for (std::size_t len = 0; len < bytes.size(); ++len) {
      const std::vector<std::uint8_t> cut(
          bytes.begin(), bytes.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_FALSE(decode_message(cut, kHex8).has_value())
          << type_name(type_of(msg.body)) << " truncated to " << len;
    }
  }
}

TEST(CodecHardening, RandomBitFlipsNeverAbort) {
  // Corruption may be detected (nullopt) or land on another valid message;
  // either way decode must return, and a successful decode must re-encode
  // without aborting (the decoded message is structurally valid). CI's
  // fault-matrix job adds a seed via HCUBE_FAULT_SEED.
  std::vector<std::uint64_t> seeds{2026};
  if (const char* extra = std::getenv("HCUBE_FAULT_SEED"))
    seeds.push_back(std::strtoull(extra, nullptr, 10));
  for (const std::uint64_t seed : seeds) {
    Rng rng(seed);
    for (const Message& msg : one_of_each(kHex8)) {
      const auto bytes = encode_message(msg, kHex8);
      for (int trial = 0; trial < 300; ++trial) {
        auto corrupt = bytes;
        const int flips = 1 + static_cast<int>(rng.next_below(3));
        for (int f = 0; f < flips; ++f) {
          const std::size_t bit = rng.next_below(corrupt.size() * 8);
          corrupt[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        }
        const auto decoded = decode_message(corrupt, kHex8);
        if (decoded.has_value()) (void)encode_message(*decoded, kHex8);
      }
    }
  }
}

TEST(CodecHardening, ReliabilityEnvelopeRoundTrips) {
  UniqueIdGenerator gen(kHex8, 7);
  Message msg{gen.next(), JoinWaitMsg{}};
  msg.rel_seq = 0x00C0FFEE;
  msg.gen = 42;
  const auto bytes = encode_message(msg, kHex8);
  const auto decoded = decode_message(bytes, kHex8);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->rel_seq, 0x00C0FFEEu);
  EXPECT_EQ(decoded->gen, 42u);
  // The envelope is part of the byte format, not ignored padding.
  Message other = msg;
  other.rel_seq = 7;
  EXPECT_NE(encode_message(other, kHex8), bytes);
}

}  // namespace
}  // namespace hcube
