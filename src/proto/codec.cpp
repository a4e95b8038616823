#include "proto/codec.h"

#include <bit>
#include <cstring>

#include "util/check.h"

namespace hcube {
namespace {

constexpr std::uint8_t kMagic[4] = {'H', 'C', 'U', 'B'};
constexpr std::uint8_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 40;
constexpr std::size_t kOffType = 5;
constexpr std::size_t kOffAux = 6;
constexpr std::size_t kOffFlags = 7;
// Envelope words in the (formerly all-reserved) header tail.
constexpr std::size_t kOffRelSeq = 8;
constexpr std::size_t kOffGen = 12;
constexpr std::uint8_t kFlagHasBitvec = 0x01;

std::uint32_t read_u32_at(const std::vector<std::uint8_t>& bytes,
                          std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(bytes[off + i]) << (8 * i);
  return v;
}

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    out_.push_back(static_cast<std::uint8_t>(v));
    out_.push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i)
      out_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void zeros(std::size_t n) { out_.insert(out_.end(), n, 0); }

  // Packs `nbits` of v at the current bit cursor (little-endian bit order).
  void bits(std::uint32_t v, unsigned nbits) {
    for (unsigned i = 0; i < nbits; ++i) {
      if (bit_pos_ == 0) out_.push_back(0);
      if ((v >> i) & 1) out_.back() |= static_cast<std::uint8_t>(1 << bit_pos_);
      bit_pos_ = (bit_pos_ + 1) % 8;
    }
  }
  void align_byte() { bit_pos_ = 0; }

 private:
  std::vector<std::uint8_t>& out_;
  unsigned bit_pos_ = 0;
};

class Reader {
 public:
  Reader(const std::vector<std::uint8_t>& in, std::size_t pos)
      : in_(in), pos_(pos) {}

  bool ok() const { return ok_; }
  std::size_t pos() const { return pos_; }

  std::uint8_t u8() {
    if (pos_ >= in_.size()) return fail_u8();
    return in_[pos_++];
  }
  std::uint16_t u16() {
    const std::uint16_t lo = u8();
    return static_cast<std::uint16_t>(lo | (u8() << 8));
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(u8()) << (8 * i);
    return v;
  }
  void skip(std::size_t n) {
    if (pos_ + n > in_.size()) {
      ok_ = false;
      pos_ = in_.size();
    } else {
      pos_ += n;
    }
  }

  std::uint32_t bits(unsigned nbits) {
    std::uint32_t v = 0;
    for (unsigned i = 0; i < nbits; ++i) {
      if (bit_pos_ == 0) {
        if (pos_ >= in_.size()) {
          ok_ = false;
          return 0;
        }
        cur_ = in_[pos_++];
      }
      v |= static_cast<std::uint32_t>((cur_ >> bit_pos_) & 1) << i;
      bit_pos_ = (bit_pos_ + 1) % 8;
    }
    return v;
  }
  void align_byte() { bit_pos_ = 0; }

 private:
  std::uint8_t fail_u8() {
    ok_ = false;
    return 0;
  }
  const std::vector<std::uint8_t>& in_;
  std::size_t pos_;
  bool ok_ = true;
  unsigned bit_pos_ = 0;
  std::uint8_t cur_ = 0;
};

unsigned bits_per_digit(const IdParams& params) {
  return static_cast<unsigned>(std::bit_width(params.base - 1));
}

void write_node_ref(Writer& w, const NodeId& id, const IdParams& params,
                    const WireAddress& addr) {
  HCUBE_CHECK_MSG(id.is_valid(), "cannot encode an invalid node ID");
  const unsigned bpd = bits_per_digit(params);
  for (std::size_t i = 0; i < params.num_digits; ++i) w.bits(id.digit(i), bpd);
  w.align_byte();
  // Pad to the model's ceil(d * bpd / 8): Writer::bits already emitted
  // exactly that many bytes.
  w.u32(addr.ipv4);
  w.u16(addr.port);
}

std::optional<NodeId> read_node_ref(Reader& r, const IdParams& params) {
  const unsigned bpd = bits_per_digit(params);
  std::vector<Digit> digits(params.num_digits);
  for (auto& d : digits) {
    const std::uint32_t v = r.bits(bpd);
    if (!r.ok() || v >= params.base) return std::nullopt;
    d = static_cast<Digit>(v);
  }
  r.align_byte();
  r.u32();  // address (opaque here)
  r.u16();  // port
  if (!r.ok()) return std::nullopt;
  return NodeId(std::move(digits), params);
}

void write_snapshot(Writer& w, const TableSnapshot& snap,
                    const IdParams& params) {
  // Presence bitmap, level-major.
  const std::size_t nbits =
      static_cast<std::size_t>(params.num_digits) * params.base;
  BitVec bitmap(nbits);
  for (const SnapshotEntry& e : snap.entries) {
    HCUBE_CHECK(e.level < params.num_digits && e.digit < params.base);
    const std::size_t bit =
        static_cast<std::size_t>(e.level) * params.base + e.digit;
    HCUBE_CHECK_MSG(!bitmap.get(bit), "duplicate snapshot entry");
    bitmap.set(bit);
  }
  for (std::size_t i = 0; i < nbits; ++i) w.bits(bitmap.get(i) ? 1 : 0, 1);
  w.align_byte();
  // Entries in bitmap order.
  std::vector<const SnapshotEntry*> ordered(nbits, nullptr);
  for (const SnapshotEntry& e : snap.entries)
    ordered[static_cast<std::size_t>(e.level) * params.base + e.digit] = &e;
  for (const SnapshotEntry* e : ordered) {
    if (e == nullptr) continue;
    write_node_ref(w, e->node, params, {});
    w.u8(e->state == NeighborState::kS ? 1 : 0);
  }
}

std::optional<TableSnapshot> read_snapshot(Reader& r, const IdParams& params) {
  const std::size_t nbits =
      static_cast<std::size_t>(params.num_digits) * params.base;
  BitVec bitmap(nbits);
  for (std::size_t i = 0; i < nbits; ++i)
    if (r.bits(1)) bitmap.set(i);
  r.align_byte();
  if (!r.ok()) return std::nullopt;

  TableSnapshot snap;
  for (std::size_t i = 0; i < nbits; ++i) {
    if (!bitmap.get(i)) continue;
    auto node = read_node_ref(r, params);
    const std::uint8_t state = r.u8();
    if (!node || !r.ok() || state > 1) return std::nullopt;
    const auto level = static_cast<std::uint8_t>(i / params.base);
    const auto digit = static_cast<std::uint8_t>(i % params.base);
    // The entry must respect the bitmap slot's digit.
    if (node->digit(level) != digit) return std::nullopt;
    snap.add(level, digit, std::move(*node),
             state ? NeighborState::kS : NeighborState::kT);
  }
  return snap;
}

void write_bitvec(Writer& w, const BitVec& bits) {
  for (std::size_t i = 0; i < bits.size(); ++i) w.bits(bits.get(i) ? 1 : 0, 1);
  w.align_byte();
}

BitVec read_bitvec(Reader& r, std::size_t nbits) {
  BitVec bits(nbits);
  for (std::size_t i = 0; i < nbits; ++i)
    if (r.bits(1)) bits.set(i);
  r.align_byte();
  return bits;
}

}  // namespace

std::vector<std::uint8_t> encode_message(const Message& msg,
                                         const IdParams& params,
                                         const WireAddress& sender_addr) {
  std::vector<std::uint8_t> out;
  out.reserve(wire_size_bytes(msg, params));
  Writer w(out);

  // Header.
  for (std::uint8_t c : kMagic) w.u8(c);
  w.u8(kVersion);
  const MessageType type = type_of(msg.body);
  w.u8(static_cast<std::uint8_t>(type));
  std::uint8_t aux = 0, flags = 0;
  if (const auto* jn = std::get_if<JoinNotiMsg>(&msg.body)) {
    aux = jn->sender_noti_level;
    if (jn->filled.has_value()) flags |= kFlagHasBitvec;
  }
  w.u8(aux);
  w.u8(flags);
  w.u32(msg.rel_seq);
  w.u32(msg.gen);
  w.zeros(kHeaderBytes - 16);

  write_node_ref(w, msg.sender, params, sender_addr);

  std::visit(
      Overloaded{
          [](const CpRstMsg&) {},
          [&](const CpRlyMsg& m) { write_snapshot(w, m.table, params); },
          [](const JoinWaitMsg&) {},
          [&](const JoinWaitRlyMsg& m) {
            w.u8(m.positive ? 1 : 0);
            write_node_ref(w, m.u, params, {});
            write_snapshot(w, m.table, params);
          },
          [&](const JoinNotiMsg& m) {
            write_snapshot(w, m.table, params);
            if (m.filled.has_value()) write_bitvec(w, *m.filled);
          },
          [&](const JoinNotiRlyMsg& m) {
            w.u8(m.positive ? 1 : 0);
            w.u8(m.flag ? 1 : 0);
            write_snapshot(w, m.table, params);
          },
          [](const InSysNotiMsg&) {},
          [&](const SpeNotiMsg& m) {
            write_node_ref(w, m.x, params, {});
            write_node_ref(w, m.y, params, {});
          },
          [&](const SpeNotiRlyMsg& m) {
            write_node_ref(w, m.x, params, {});
            write_node_ref(w, m.y, params, {});
          },
          [&](const RvNghNotiMsg& m) {
            w.u8(m.recorded_state == NeighborState::kS ? 1 : 0);
          },
          [&](const RvNghNotiRlyMsg& m) {
            w.u8(m.actual_state == NeighborState::kS ? 1 : 0);
          },
          [&](const LeaveMsg& m) { write_snapshot(w, m.candidates, params); },
          [](const LeaveRlyMsg&) {},
          [](const NghDropMsg&) {},
          [](const PingMsg&) {},
          [](const PongMsg&) {},
          [&](const RepairQueryMsg& m) {
            w.u8(m.level);
            w.u8(m.digit);
          },
          [&](const RepairRlyMsg& m) {
            w.u8(m.level);
            w.u8(m.digit);
            w.u8(m.candidate.is_valid() ? 1 : 0);
            if (m.candidate.is_valid())
              write_node_ref(w, m.candidate, params, {});
          },
          [&](const AnnounceMsg& m) { write_snapshot(w, m.table, params); },
          [&](const RelAckMsg& m) { w.u32(m.acked_seq); },
      },
      msg.body);

  HCUBE_CHECK_MSG(out.size() == wire_size_bytes(msg, params),
                  "codec and size model disagree");
  return out;
}

std::optional<Message> decode_message(const std::vector<std::uint8_t>& bytes,
                                      const IdParams& params) {
  if (bytes.size() < kHeaderBytes) return std::nullopt;
  if (std::memcmp(bytes.data(), kMagic, 4) != 0) return std::nullopt;
  if (bytes[4] != kVersion) return std::nullopt;
  const std::uint8_t type = bytes[kOffType];
  if (type >= kNumMessageTypes) return std::nullopt;
  const std::uint8_t aux = bytes[kOffAux];
  const std::uint8_t flags = bytes[kOffFlags];

  Reader r(bytes, kHeaderBytes);
  auto sender = read_node_ref(r, params);
  if (!sender) return std::nullopt;

  Message msg;
  msg.sender = std::move(*sender);
  msg.rel_seq = read_u32_at(bytes, kOffRelSeq);
  msg.gen = read_u32_at(bytes, kOffGen);

  // No default arm: one would switch off -Werror=switch for this enum.
  switch (static_cast<MessageType>(type)) {
    case MessageType::kCpRst:
      msg.body = CpRstMsg{};
      break;
    case MessageType::kCpRly: {
      auto snap = read_snapshot(r, params);
      if (!snap) return std::nullopt;
      msg.body = CpRlyMsg{std::move(*snap)};
      break;
    }
    case MessageType::kJoinWait:
      msg.body = JoinWaitMsg{};
      break;
    case MessageType::kJoinWaitRly: {
      const std::uint8_t positive = r.u8();
      auto u = read_node_ref(r, params);
      auto snap = read_snapshot(r, params);
      if (!r.ok() || positive > 1 || !u || !snap) return std::nullopt;
      msg.body = JoinWaitRlyMsg{positive != 0, std::move(*u),
                                std::move(*snap)};
      break;
    }
    case MessageType::kJoinNoti: {
      auto snap = read_snapshot(r, params);
      if (!snap) return std::nullopt;
      JoinNotiMsg body;
      body.table = std::move(*snap);
      body.sender_noti_level = aux;
      if (flags & kFlagHasBitvec) {
        body.filled = read_bitvec(
            r, static_cast<std::size_t>(params.num_digits) * params.base);
        if (!r.ok()) return std::nullopt;
      }
      msg.body = std::move(body);
      break;
    }
    case MessageType::kJoinNotiRly: {
      const std::uint8_t positive = r.u8();
      const std::uint8_t flag = r.u8();
      auto snap = read_snapshot(r, params);
      if (!r.ok() || positive > 1 || flag > 1 || !snap) return std::nullopt;
      msg.body = JoinNotiRlyMsg{positive != 0, std::move(*snap), flag != 0};
      break;
    }
    case MessageType::kInSysNoti:
      msg.body = InSysNotiMsg{};
      break;
    case MessageType::kSpeNoti:
    case MessageType::kSpeNotiRly: {
      auto x = read_node_ref(r, params);
      auto y = read_node_ref(r, params);
      if (!x || !y) return std::nullopt;
      if (static_cast<MessageType>(type) == MessageType::kSpeNoti)
        msg.body = SpeNotiMsg{std::move(*x), std::move(*y)};
      else
        msg.body = SpeNotiRlyMsg{std::move(*x), std::move(*y)};
      break;
    }
    case MessageType::kRvNghNoti: {
      const std::uint8_t s = r.u8();
      if (!r.ok() || s > 1) return std::nullopt;
      msg.body = RvNghNotiMsg{s ? NeighborState::kS : NeighborState::kT};
      break;
    }
    case MessageType::kRvNghNotiRly: {
      const std::uint8_t s = r.u8();
      if (!r.ok() || s > 1) return std::nullopt;
      msg.body = RvNghNotiRlyMsg{s ? NeighborState::kS : NeighborState::kT};
      break;
    }
    case MessageType::kLeave: {
      auto snap = read_snapshot(r, params);
      if (!snap) return std::nullopt;
      msg.body = LeaveMsg{std::move(*snap)};
      break;
    }
    case MessageType::kLeaveRly:
      msg.body = LeaveRlyMsg{};
      break;
    case MessageType::kNghDrop:
      msg.body = NghDropMsg{};
      break;
    case MessageType::kPing:
      msg.body = PingMsg{};
      break;
    case MessageType::kPong:
      msg.body = PongMsg{};
      break;
    case MessageType::kRepairQuery: {
      const std::uint8_t level = r.u8();
      const std::uint8_t digit = r.u8();
      if (!r.ok() || level >= params.num_digits || digit >= params.base)
        return std::nullopt;
      msg.body = RepairQueryMsg{level, digit};
      break;
    }
    case MessageType::kRepairRly: {
      RepairRlyMsg body;
      body.level = r.u8();
      body.digit = r.u8();
      const std::uint8_t has = r.u8();
      if (!r.ok() || has > 1 || body.level >= params.num_digits ||
          body.digit >= params.base)
        return std::nullopt;
      if (has) {
        auto c = read_node_ref(r, params);
        if (!c) return std::nullopt;
        body.candidate = std::move(*c);
      }
      msg.body = std::move(body);
      break;
    }
    case MessageType::kAnnounce: {
      auto snap = read_snapshot(r, params);
      if (!snap) return std::nullopt;
      msg.body = AnnounceMsg{std::move(*snap)};
      break;
    }
    case MessageType::kRelAck:
      msg.body = RelAckMsg{r.u32()};
      break;
  }
  if (!r.ok()) return std::nullopt;
  if (r.pos() != bytes.size()) return std::nullopt;  // trailing garbage
  return msg;
}

}  // namespace hcube
