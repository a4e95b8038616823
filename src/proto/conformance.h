// Protocol conformance registry: the (NodeStatus × MessageType) surface as
// a single compile-time table.
//
// Theorems 1-2 of the paper assume every node handles every message
// correctly in every status. Before this registry that surface was scattered
// across node.cpp's dispatch, join_protocol.cpp's handlers, codec.cpp and
// messages.cpp, so adding a message type could silently miss a case and only
// dynamic fuzzing would notice. Here the per-status action table IS the
// spec: kConformance maps each MessageType to its handling contract —
//
//   legal_statuses  receiver statuses in which delivery is declared legal
//                   (including statuses where only a *stale* instance can
//                   arrive, e.g. a CpRlyMsg reaching a node that already
//                   finished joining under a later generation);
//   echoes_gen      replies/forwards echo the request's generation tag
//                   instead of carrying the sender's own (the lookup behind
//                   echoes_request_gen());
//   big_request     one of the three §5.2 table-carrying request types (the
//                   lookup behind is_big_request());
//   reply           the message type sent in answer, when the contract
//                   prescribes one.
//
// static_asserts pin the table to exactly kNumMessageTypes entries in
// enumerator order and cross-check it against itself (every declared reply
// echoes the request generation, exactly three big requests, RelAck never
// legal at the protocol layer). Deleting or reordering an entry fails the
// build. At runtime Node::handle consults conformance_allows() before
// dispatch: an undeclared (status, type) pair is rejected — dropped and
// counted in ConformanceStats — never handled.
//
// The compiler enforces the cross-file half of the contract too: the
// switches in type_name, to_string(NodeStatus) and decode_message have no
// default arm and hcube_proto builds with -Werror=switch, and type_of,
// wire_size_bytes, encode_message and Node::handle visit MessageBody with
// one Overloaded lambda per alternative, so a type or status missing from
// any of them fails the build; see DESIGN.md §10.
#pragma once

#include <array>
#include <cstdint>
#include <variant>

#include "util/metric.h"
#include "proto/messages.h"

namespace hcube {

// Node status (Section 4), extended with the leave states of this library's
// leave protocol (the paper defers leaving to future work). A node is an
// S-node iff status is kInSystem; kLeaving/kDeparted are extension states
// outside the paper's model.
enum class NodeStatus : std::uint8_t {
  kCopying,
  kWaiting,
  kNotifying,
  kInSystem,
  kLeaving,
  kDeparted,
  kCrashed,  // fail-stop (extension): the node silently stops responding
};
inline constexpr std::size_t kNumNodeStatuses = 7;

const char* to_string(NodeStatus s);

// A T-node mid-join: copying, waiting or notifying.
constexpr bool is_joining(NodeStatus s) {
  return s == NodeStatus::kCopying || s == NodeStatus::kWaiting ||
         s == NodeStatus::kNotifying;
}

// One bit per NodeStatus, in enumerator order.
using StatusMask = std::uint8_t;

constexpr StatusMask status_bit(NodeStatus s) {
  return static_cast<StatusMask>(StatusMask{1} << static_cast<unsigned>(s));
}

template <class... Statuses>
constexpr StatusMask statuses(Statuses... s) {
  return static_cast<StatusMask>((status_bit(s) | ...));
}

struct MessageContract {
  MessageType type;          // pinned to the entry's index by static_assert
  StatusMask legal_statuses; // receiver statuses in which delivery is legal
  bool echoes_gen;           // reply/forward: echoes the request's gen tag
  bool big_request;          // §5.2 table-carrying request
  bool has_reply;            // the contract prescribes an answer
  MessageType reply;         // meaningful iff has_reply
};

namespace conformance_detail {

constexpr NodeStatus kC = NodeStatus::kCopying;
constexpr NodeStatus kW = NodeStatus::kWaiting;
constexpr NodeStatus kN = NodeStatus::kNotifying;
constexpr NodeStatus kS = NodeStatus::kInSystem;
constexpr NodeStatus kL = NodeStatus::kLeaving;
constexpr NodeStatus kD = NodeStatus::kDeparted;

// Every joining status plus in_system/leaving: the set in which join-phase
// traffic can legitimately arrive. A watchdog restart can put a node back
// in kCopying while peers still converse with it, and stale replies of an
// aborted attempt can trail in long after the node settled, so reply types
// are legal wherever the generation filter that rejects them runs.
constexpr StatusMask kJoinPhase = statuses(kC, kW, kN, kS, kL);
// Statuses in which bookkeeping notifications (reverse-neighbor traffic,
// drops, announcements) are tolerated — including kDeparted, where they
// race the departure and need no answer.
constexpr StatusMask kAnyLive = statuses(kC, kW, kN, kS, kL, kD);

}  // namespace conformance_detail

inline constexpr std::array<MessageContract, kNumMessageTypes> kConformance = {{
    // type             legal_statuses            echoes big   has_reply reply
    {MessageType::kCpRst,
     statuses(conformance_detail::kS, conformance_detail::kL),
     false, true, true, MessageType::kCpRly},
    {MessageType::kCpRly, conformance_detail::kJoinPhase,
     true, false, false, MessageType::kCpRly},
    {MessageType::kJoinWait, conformance_detail::kJoinPhase,
     false, true, true, MessageType::kJoinWaitRly},
    {MessageType::kJoinWaitRly, conformance_detail::kJoinPhase,
     true, false, false, MessageType::kJoinWaitRly},
    {MessageType::kJoinNoti, conformance_detail::kJoinPhase,
     false, true, true, MessageType::kJoinNotiRly},
    {MessageType::kJoinNotiRly, conformance_detail::kJoinPhase,
     true, false, false, MessageType::kJoinNotiRly},
    {MessageType::kInSysNoti, conformance_detail::kAnyLive,
     false, false, false, MessageType::kInSysNoti},
    // SpeNotiMsg is originated and forwarded while handling a message of the
    // announced attempt, so it echoes that attempt's generation down the
    // forwarding chain to its reply (see echoes_request_gen()).
    {MessageType::kSpeNoti, conformance_detail::kJoinPhase,
     true, false, true, MessageType::kSpeNotiRly},
    {MessageType::kSpeNotiRly, conformance_detail::kJoinPhase,
     true, false, false, MessageType::kSpeNotiRly},
    // RvNghNotiRlyMsg is sent only when the recorded state disagrees with
    // the actual one, but the contract still names it as the reply type.
    {MessageType::kRvNghNoti, conformance_detail::kAnyLive,
     false, false, true, MessageType::kRvNghNotiRly},
    {MessageType::kRvNghNotiRly, conformance_detail::kAnyLive,
     true, false, false, MessageType::kRvNghNotiRly},
    {MessageType::kLeave, conformance_detail::kAnyLive,
     false, false, true, MessageType::kLeaveRly},
    {MessageType::kLeaveRly,
     statuses(conformance_detail::kL, conformance_detail::kD),
     true, false, false, MessageType::kLeaveRly},
    {MessageType::kNghDrop, conformance_detail::kAnyLive,
     false, false, false, MessageType::kNghDrop},
    {MessageType::kPing, conformance_detail::kAnyLive,
     false, false, true, MessageType::kPong},
    {MessageType::kPong,
     statuses(conformance_detail::kS, conformance_detail::kL),
     true, false, false, MessageType::kPong},
    {MessageType::kRepairQuery, conformance_detail::kAnyLive,
     false, false, true, MessageType::kRepairRly},
    {MessageType::kRepairRly,
     statuses(conformance_detail::kS, conformance_detail::kL),
     true, false, false, MessageType::kRepairRly},
    {MessageType::kAnnounce, conformance_detail::kAnyLive,
     false, false, false, MessageType::kAnnounce},
    // Delivery acknowledgements belong to the reliable-transport decorator;
    // one surfacing at the protocol layer means the overlay was wired to a
    // transport stack without that decorator. Never legal: every delivery
    // is rejected and counted.
    {MessageType::kRelAck, StatusMask{0},
     false, false, false, MessageType::kRelAck},
}};

constexpr const MessageContract& conformance_of(MessageType t) {
  return kConformance[static_cast<std::size_t>(t)];
}

// The always-on conformance check: is delivery of `t` to a node in status
// `s` declared legal by the registry?
constexpr bool conformance_allows(NodeStatus s, MessageType t) {
  return (conformance_of(t).legal_statuses & status_bit(s)) != 0;
}

// ---- Compile-time self-checks: the registry covers the whole enum, in
// ---- order, and agrees with itself. Deleting any entry fails the build.

static_assert(kConformance.size() == kNumMessageTypes,
              "conformance registry must cover every MessageType");
static_assert(std::variant_size_v<MessageBody> == kNumMessageTypes,
              "MessageBody variant and MessageType enum must stay in sync");

namespace conformance_detail {

constexpr bool entries_in_enum_order() {
  for (std::size_t i = 0; i < kConformance.size(); ++i)
    if (kConformance[i].type != static_cast<MessageType>(i)) return false;
  return true;
}

constexpr bool replies_echo_request_gen() {
  for (const MessageContract& c : kConformance)
    if (c.has_reply && !conformance_of(c.reply).echoes_gen) return false;
  return true;
}

constexpr std::size_t count_big_requests() {
  std::size_t n = 0;
  for (const MessageContract& c : kConformance)
    if (c.big_request) ++n;
  return n;
}

constexpr bool big_requests_have_replies() {
  for (const MessageContract& c : kConformance)
    if (c.big_request && (!c.has_reply || c.echoes_gen)) return false;
  return true;
}

constexpr bool only_relack_is_unhandleable() {
  for (const MessageContract& c : kConformance) {
    const bool never_legal = c.legal_statuses == 0;
    if (never_legal != (c.type == MessageType::kRelAck)) return false;
  }
  return true;
}

constexpr bool crashed_receives_nothing() {
  for (const MessageContract& c : kConformance)
    if ((c.legal_statuses & status_bit(NodeStatus::kCrashed)) != 0)
      return false;
  return true;
}

}  // namespace conformance_detail

static_assert(conformance_detail::entries_in_enum_order(),
              "conformance entries must appear in MessageType order");
static_assert(conformance_detail::replies_echo_request_gen(),
              "every declared reply type must echo the request generation");
static_assert(conformance_detail::count_big_requests() == 3,
              "§5.2 names exactly three big request types");
static_assert(conformance_detail::big_requests_have_replies(),
              "big requests are requests: they prescribe a reply and carry "
              "their own generation");
static_assert(conformance_detail::only_relack_is_unhandleable(),
              "every protocol-layer type needs at least one legal status; "
              "only RelAck is transport-internal");
static_assert(conformance_detail::crashed_receives_nothing(),
              "crashed nodes are fail-stop silent; no delivery is legal");

// ---- Runtime rejection counters ----
//
// A delivery whose (status, type) pair the registry does not declare is
// dropped before dispatch and counted here, per message type. Overlay keeps
// the network-wide count (striped per lane; Overlay::conformance()).
// Canonical registry name for the network-wide rejection total
// (obs/collect exports it; per-type counts ride under it as a histogram-free
// scalar because rejections are rare by design).
HCUBE_METRIC(kMetricConformanceRejected, "conformance.rejected");

struct ConformanceStats {
  // 32-bit: rejection counts are tiny (ideally zero) even network-wide.
  // Accessors widen to 64 bits.
  std::array<std::uint32_t, kNumMessageTypes> rejected{};

  std::uint64_t rejected_of(MessageType t) const {
    return rejected[static_cast<std::size_t>(t)];
  }
  std::uint64_t total_rejected() const {
    std::uint64_t n = 0;
    for (std::uint64_t r : rejected) n += r;
    return n;
  }

  // Exports the total under its canonical registry name.
  template <class Fn>
  void for_each_metric(Fn&& fn) const {
    fn(kMetricConformanceRejected, total_rejected());
  }
};

}  // namespace hcube
