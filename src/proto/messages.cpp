#include "proto/messages.h"

#include <bit>

#include "proto/conformance.h"
#include "util/check.h"

namespace hcube {
namespace {

constexpr std::size_t kHeaderBytes = 40;

}  // namespace

MessageType type_of(const MessageBody& body) {
  return std::visit(
      Overloaded{
          [](const CpRstMsg&) { return MessageType::kCpRst; },
          [](const CpRlyMsg&) { return MessageType::kCpRly; },
          [](const JoinWaitMsg&) { return MessageType::kJoinWait; },
          [](const JoinWaitRlyMsg&) { return MessageType::kJoinWaitRly; },
          [](const JoinNotiMsg&) { return MessageType::kJoinNoti; },
          [](const JoinNotiRlyMsg&) { return MessageType::kJoinNotiRly; },
          [](const InSysNotiMsg&) { return MessageType::kInSysNoti; },
          [](const SpeNotiMsg&) { return MessageType::kSpeNoti; },
          [](const SpeNotiRlyMsg&) { return MessageType::kSpeNotiRly; },
          [](const RvNghNotiMsg&) { return MessageType::kRvNghNoti; },
          [](const RvNghNotiRlyMsg&) { return MessageType::kRvNghNotiRly; },
          [](const LeaveMsg&) { return MessageType::kLeave; },
          [](const LeaveRlyMsg&) { return MessageType::kLeaveRly; },
          [](const NghDropMsg&) { return MessageType::kNghDrop; },
          [](const PingMsg&) { return MessageType::kPing; },
          [](const PongMsg&) { return MessageType::kPong; },
          [](const RepairQueryMsg&) { return MessageType::kRepairQuery; },
          [](const RepairRlyMsg&) { return MessageType::kRepairRly; },
          [](const AnnounceMsg&) { return MessageType::kAnnounce; },
          [](const RelAckMsg&) { return MessageType::kRelAck; },
      },
      body);
}

const char* type_name(MessageType t) {
  // No default arm: one would switch off -Werror=switch for this enum.
  switch (t) {
    case MessageType::kCpRst: return "CpRstMsg";
    case MessageType::kCpRly: return "CpRlyMsg";
    case MessageType::kJoinWait: return "JoinWaitMsg";
    case MessageType::kJoinWaitRly: return "JoinWaitRlyMsg";
    case MessageType::kJoinNoti: return "JoinNotiMsg";
    case MessageType::kJoinNotiRly: return "JoinNotiRlyMsg";
    case MessageType::kInSysNoti: return "InSysNotiMsg";
    case MessageType::kSpeNoti: return "SpeNotiMsg";
    case MessageType::kSpeNotiRly: return "SpeNotiRlyMsg";
    case MessageType::kRvNghNoti: return "RvNghNotiMsg";
    case MessageType::kRvNghNotiRly: return "RvNghNotiRlyMsg";
    case MessageType::kLeave: return "LeaveMsg";
    case MessageType::kLeaveRly: return "LeaveRlyMsg";
    case MessageType::kNghDrop: return "NghDropMsg";
    case MessageType::kPing: return "PingMsg";
    case MessageType::kPong: return "PongMsg";
    case MessageType::kRepairQuery: return "RepairQueryMsg";
    case MessageType::kRepairRly: return "RepairRlyMsg";
    case MessageType::kAnnounce: return "AnnounceMsg";
    case MessageType::kRelAck: return "RelAckMsg";
  }
  return "UnknownMsg";
}

// Both predicates are lookups into the conformance registry
// (proto/conformance.h): the registry is the single source of truth for a
// message type's handling contract, and its static_asserts keep the table
// in enumerator order with exactly kNumMessageTypes entries.
bool is_big_request(MessageType t) { return conformance_of(t).big_request; }

bool echoes_request_gen(MessageType t) { return conformance_of(t).echoes_gen; }

std::size_t id_wire_bytes(const IdParams& params) {
  const unsigned bits_per_digit = std::bit_width(params.base - 1);
  return (params.num_digits * bits_per_digit + 7) / 8;
}

std::size_t node_ref_wire_bytes(const IdParams& params) {
  return id_wire_bytes(params) + 6;  // IPv4 address + port
}

std::size_t snapshot_wire_bytes(const TableSnapshot& snap,
                                const IdParams& params) {
  const std::size_t bitmap_bytes =
      (static_cast<std::size_t>(params.num_digits) * params.base + 7) / 8;
  return bitmap_bytes + snap.size() * (node_ref_wire_bytes(params) + 1);
}

std::size_t wire_size_bytes(const Message& msg, const IdParams& params) {
  return wire_size_bytes(msg.body, params);
}

std::size_t wire_size_bytes(const MessageBody& body, const IdParams& params) {
  const std::size_t ref = node_ref_wire_bytes(params);
  std::size_t size = kHeaderBytes + ref;  // envelope carries sender ref
  size += std::visit(
      Overloaded{
          [&](const CpRstMsg&) -> std::size_t { return 0; },
          [&](const CpRlyMsg& m) {
            return snapshot_wire_bytes(m.table, params);
          },
          [&](const JoinWaitMsg&) -> std::size_t { return 0; },
          [&](const JoinWaitRlyMsg& m) {
            return 1 + ref + snapshot_wire_bytes(m.table, params);
          },
          [&](const JoinNotiMsg& m) {
            return snapshot_wire_bytes(m.table, params) +
                   (m.filled ? m.filled->size_bytes() : 0);
          },
          [&](const JoinNotiRlyMsg& m) {
            return std::size_t{2} + snapshot_wire_bytes(m.table, params);
          },
          [&](const InSysNotiMsg&) -> std::size_t { return 0; },
          [&](const SpeNotiMsg&) -> std::size_t { return 2 * ref; },
          [&](const SpeNotiRlyMsg&) -> std::size_t { return 2 * ref; },
          [&](const RvNghNotiMsg&) -> std::size_t { return 1; },
          [&](const RvNghNotiRlyMsg&) -> std::size_t { return 1; },
          [&](const LeaveMsg& m) {
            return snapshot_wire_bytes(m.candidates, params);
          },
          [&](const LeaveRlyMsg&) -> std::size_t { return 0; },
          [&](const NghDropMsg&) -> std::size_t { return 0; },
          [&](const PingMsg&) -> std::size_t { return 0; },
          [&](const PongMsg&) -> std::size_t { return 0; },
          [&](const RepairQueryMsg&) -> std::size_t { return 2; },
          [&](const RepairRlyMsg& m) -> std::size_t {
            return 3 + (m.candidate.is_valid() ? ref : 0);
          },
          [&](const AnnounceMsg& m) {
            return snapshot_wire_bytes(m.table, params);
          },
          [&](const RelAckMsg&) -> std::size_t { return 4; },
      },
      body);
  return size;
}

}  // namespace hcube
