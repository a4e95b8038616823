// Join-protocol messages (Figure 4 of the paper) and table snapshots.
//
// Every message type from the paper is represented, including the
// reverse-neighbor notifications (RvNghNotiMsg / RvNghNotiRlyMsg) whose
// send/receive the paper's pseudo-code elides "for clarity" but which the
// protocol depends on (InSysNotiMsg goes to reverse neighbors).
//
// Messages that carry a neighbor table carry a TableSnapshot: the list of
// non-null entries at the sender at send time. Section 6.2's size
// reductions (partial levels, bit-vector-pruned replies) shrink what the
// sender includes; wire_size_bytes() models the resulting message sizes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "ids/node_id.h"
#include "util/bitvec.h"

namespace hcube {

// State a node records for each stored neighbor: S = the neighbor is known
// to be in status in_system (an S-node), T = not yet.
enum class NeighborState : std::uint8_t { kT, kS };

// One non-null neighbor-table entry as carried in a message.
struct SnapshotEntry {
  std::uint8_t level;   // i
  std::uint8_t digit;   // j
  NodeId node;          // the (i, j)-neighbor
  NeighborState state;  // sender's recorded state for it
};

struct TableSnapshot {
  std::vector<SnapshotEntry> entries;

  void add(std::uint8_t level, std::uint8_t digit, NodeId node,
           NeighborState state) {
    entries.push_back({level, digit, std::move(node), state});
  }
  std::size_t size() const { return entries.size(); }
};

// ---- Message bodies (names follow Figure 4) ----

struct CpRstMsg {};  // request a copy of the receiver's table

struct CpRlyMsg {  // reply with the table
  TableSnapshot table;
};

struct JoinWaitMsg {};  // "x is waiting to be stored in your table"

struct JoinWaitRlyMsg {
  bool positive;  // r in the paper: positive = receiver stored the sender
  NodeId u;       // on negative: the node already occupying the entry
  TableSnapshot table;
};

struct JoinNotiMsg {
  TableSnapshot table;  // x.table (possibly only levels noti_level..k, §6.2)
  // x's notification level; the §6.2 bit-vector reply includes all entries
  // at levels >= this unconditionally (x must *discover* nodes there, not
  // just fill holes).
  std::uint8_t sender_noti_level = 0;
  // §6.2 enhancement: bit vector of x's filled entries ('1' = filled), so
  // the receiver can prune its reply. Not sent in the baseline policy.
  std::optional<BitVec> filled;
};

struct JoinNotiRlyMsg {
  bool positive;        // r: receiver stores (or already stored) the sender
  TableSnapshot table;  // y.table (possibly pruned by the bit vector)
  bool flag;            // f: triggers SpeNotiMsg (see Figure 10)
};

struct InSysNotiMsg {};  // "I have become an S-node"

struct SpeNotiMsg {  // inform receiver of the existence of y
  NodeId x;  // initial sender (collects the final reply)
  NodeId y;  // the node being announced
};

struct SpeNotiRlyMsg {
  NodeId x;
  NodeId y;
};

struct RvNghNotiMsg {  // "I stored you in my table" (sender is a reverse
                       // neighbor of the receiver)
  NeighborState recorded_state;  // s: state the sender recorded
};

struct RvNghNotiRlyMsg {
  NeighborState actual_state;  // S iff the replier is in status in_system
};

// ---- Leave-protocol messages (this library's extension; the paper defers
// ---- the leave protocol to future work, see Section 7) ----

struct LeaveMsg {  // "I am leaving; here are replacement candidates"
  // The leaver's level-(k+1) table row, where k = |csuf(leaver, receiver)|:
  // by consistency of the leaver's table this row contains a representative
  // of every non-empty sub-class of the suffix class the receiver's entry
  // covers, so the receiver can repair locally (or correctly null the
  // entry when the leaver was the last member).
  TableSnapshot candidates;
};

struct LeaveRlyMsg {};  // ack: receiver repaired (or didn't need to)

struct NghDropMsg {};  // "forget me as your reverse neighbor"

// ---- Failure-recovery messages (extension; the paper defers failure
// ---- recovery alongside leaving, Section 7) ----

struct PingMsg {};  // liveness probe
struct PongMsg {};

struct RepairQueryMsg {  // "what does your (level, digit) entry hold?"
  std::uint8_t level;
  std::uint8_t digit;
};

struct RepairRlyMsg {
  std::uint8_t level;
  std::uint8_t digit;
  NodeId candidate;  // invalid = no candidate (entry empty or not shared)
};

// Push-phase re-announcement: after a repair round clears every entry that
// pointed at a dead node, each survivor pushes its table to its neighbors
// and reverse neighbors; receivers fill empty entries (the same fill rule
// as the join protocol's Check_Ngh_Table). This rediscovers class members
// that lost their only inbound pointer when a crashed node died. No reply.
struct AnnounceMsg {
  TableSnapshot table;
};

// ---- Reliable-delivery message (transport-internal; see
// ---- net/reliable_transport.h) ----

struct RelAckMsg {  // acknowledges receipt of the message numbered acked_seq
  std::uint32_t acked_seq = 0;
};

using MessageBody =
    std::variant<CpRstMsg, CpRlyMsg, JoinWaitMsg, JoinWaitRlyMsg, JoinNotiMsg,
                 JoinNotiRlyMsg, InSysNotiMsg, SpeNotiMsg, SpeNotiRlyMsg,
                 RvNghNotiMsg, RvNghNotiRlyMsg, LeaveMsg, LeaveRlyMsg,
                 NghDropMsg, PingMsg, PongMsg, RepairQueryMsg, RepairRlyMsg,
                 AnnounceMsg, RelAckMsg>;

// One lambda per alternative for std::visit over a MessageBody. Every
// per-type visit (type_of, wire_size_bytes, encode_message, Node::handle)
// lists all of them with no generic fallback, so a new alternative without
// an arm fails the build.
template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

// Envelope: in a deployment the sender's (ID, IP) rides in every message;
// here the sender ID is explicit and the "IP address" is the simulator host
// id carried by the transport. Two envelope words ride in the wire header's
// reserved bytes:
//   rel_seq — per-(sender host, receiver host) sequence number stamped by
//             ReliableTransport (0 = untracked, e.g. on a plain transport);
//   gen     — the sender's join-attempt generation. Requests carry the
//             sender's current generation; replies echo the request's, so a
//             joiner that aborted and restarted its join (join-stall
//             watchdog) can reject replies addressed to the dead attempt.
struct Message {
  NodeId sender;
  MessageBody body;
  std::uint32_t rel_seq = 0;
  std::uint32_t gen = 0;
};

enum class MessageType : std::uint8_t {
  kCpRst,
  kCpRly,
  kJoinWait,
  kJoinWaitRly,
  kJoinNoti,
  kJoinNotiRly,
  kInSysNoti,
  kSpeNoti,
  kSpeNotiRly,
  kRvNghNoti,
  kRvNghNotiRly,
  kLeave,
  kLeaveRly,
  kNghDrop,
  kPing,
  kPong,
  kRepairQuery,
  kRepairRly,
  kAnnounce,
  kRelAck,
};
inline constexpr std::size_t kNumMessageTypes = 20;

MessageType type_of(const MessageBody& body);
const char* type_name(MessageType t);

// Is this one of the three "big" message types of §5.2 (those that may carry
// a table)? Their replies are big too; the paper's analysis counts requests
// only since replies are 1:1.
bool is_big_request(MessageType t);

// Does a message of this type answer (or forward on behalf of) a specific
// incoming message, and therefore echo that message's generation tag rather
// than carry the sender's own? True for the six join replies, Pong,
// LeaveRlyMsg and RepairRlyMsg — and for SpeNotiMsg, which is originated and
// forwarded while handling a message of the announced attempt, so the echo
// carries the originator's generation down the chain to its reply.
bool echoes_request_gen(MessageType t);

// ---- Wire-size model ----
//
// header: 40 bytes (IP + UDP + message type + join-protocol header)
// node id: ceil(d * ceil(log2 b) / 8) bytes
// node reference (id + IPv4:port): id bytes + 6
// table snapshot: d*b-bit presence bitmap + one node reference + state byte
//                 per present entry
// bit vector (when present): d*b bits

std::size_t id_wire_bytes(const IdParams& params);
std::size_t node_ref_wire_bytes(const IdParams& params);
std::size_t snapshot_wire_bytes(const TableSnapshot& snap,
                                const IdParams& params);
std::size_t wire_size_bytes(const MessageBody& body, const IdParams& params);
std::size_t wire_size_bytes(const Message& msg, const IdParams& params);

}  // namespace hcube
