// A protocol node: one state machine holding what the paper says a node
// holds — a neighbor table with T/S states and reverse neighbors, a status,
// the per-join numbers of Section 5.2 and, while it joins, the variables of
// Figure 3 — plus the state of the two extensions, graceful leave and
// fail-stop repair.
//
// The handlers are split into files by protocol, all members of Node:
//
//   join_protocol.cpp    Section 4, Figures 5-14
//   leave_protocol.cpp   graceful departure (extension)
//   repair_protocol.cpp  fail-stop recovery (extension)
//   node.cpp             construction paths, dispatch (handle) and the
//                        table-write and send helpers every protocol shares
//
// A protocol's conversation state lives in a struct the node creates on
// protocol entry and drops when the protocol finishes or the node
// restarts, so a settled node holds none.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/neighbor_table.h"
#include "ids/node_id.h"
#include "ids/node_set.h"
#include "proto/conformance.h"
#include "proto/messages.h"
#include "sim/event_queue.h"
#include "util/arena.h"
#include "util/check.h"
#include "util/host.h"
#include "util/metric.h"

namespace hcube {

// The overlay a node runs in (core/overlay.h): transport, clock, timers,
// the shared ProtocolOptions and the network-wide counters. The protocol
// sources include overlay.h and call it directly.
class Overlay;

// NodeStatus now lives beside the conformance registry
// (proto/conformance.h): the registry maps (NodeStatus × MessageType) to
// handling contracts, so the proto layer owns both axes of that table.

// Canonical registry name of the watchdog-restart count, summed over
// nodes by obs::collect. The robustness extensions' other join.* counters
// are overlay-wide (Overlay::JoinCounters).
HCUBE_METRIC(kMetricJoinWatchdogRestarts, "join.watchdog_restarts");

// The paper's per-join numbers (Section 5.2) plus the join-stall
// watchdog's restart budget. Message counts cover only the three big
// requests: Theorem 3 counts CpRstMsg + JoinWaitMsg, Theorems 4/5 count
// JoinNotiMsg. Per-type detail for any message comes from subscribing to
// Overlay::on_message.
struct JoinStats {
  SimTime t_begin = -1.0;  // t^b_x: when the node began joining
  SimTime t_end = -1.0;    // t^e_x: when it became an S-node
  // The level the node's notifications start at, set when it enters
  // kNotifying (Figure 7); the join handlers read it from here.
  std::uint32_t noti_level = 0;
  // Join attempts aborted-and-restarted by the join-stall watchdog. A
  // lifetime count: the restart budget does not reset on a crash rejoin.
  std::uint32_t watchdog_restarts = 0;
  // Per-incarnation sends of CpRstMsg, JoinWaitMsg and JoinNotiMsg, in that
  // order; bumped by Overlay::send_message, the one place a send is counted.
  std::array<std::uint32_t, 3> big_sent{};

  // Fails the check for any type that is not a big request.
  std::uint64_t sent_of(MessageType t) const { return big_sent[big_slot(t)]; }
  std::uint64_t copy_plus_wait() const {
    return sent_of(MessageType::kCpRst) + sent_of(MessageType::kJoinWait);
  }
  void count_send(MessageType t) {
    if (is_big_request(t)) ++big_sent[big_slot(t)];
  }

  // Crash-recovery: the new incarnation starts its message accounting from
  // zero (Theorem 3 bounds a single join attempt, and the theorem-bound
  // tests assert per-incarnation counts); watchdog_restarts survives.
  void reset_for_new_incarnation() {
    big_sent.fill(0);
    noti_level = 0;
  }

  template <class Fn>
  void for_each_metric(Fn&& fn) const {
    fn(kMetricJoinWatchdogRestarts,
       static_cast<std::uint64_t>(watchdog_restarts));
  }

 private:
  static std::size_t big_slot(MessageType t) {
    HCUBE_CHECK_MSG(is_big_request(t),
                    "JoinStats counts only the three big requests");
    return t == MessageType::kCpRst ? 0 : t == MessageType::kJoinWait ? 1 : 2;
  }
};

// Dense insertion-ordered set (ids/node_set.h): deterministic iteration —
// protocol loops over these sets schedule same-time events, so their order
// is part of replay determinism — and no per-element heap nodes.
using NodeIdSet = FlatNodeSet;

// How long a repair probe waits for a PongMsg before presuming the probed
// neighbor dead, when start_repair / World::repair_all is driven with the
// default timeout. Callers that need another value (a lossy stack whose ARQ
// retransmission span exceeds it) pass their own.
inline constexpr SimTime kRepairPingTimeoutMs = 500.0;

class Node {
 public:
  // Created by Overlay::add_node, which passes itself as the environment
  // and its arena for the neighbor table's columns.
  Node(NodeId id, const IdParams& params, Overlay& overlay, Arena& arena);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // The node's identity lives in its table header.
  const NodeId& id() const { return table_.owner(); }
  NodeStatus status() const { return status_; }
  bool is_s_node() const { return status_ == NodeStatus::kInSystem; }
  std::uint32_t noti_level() const { return stats_.noti_level; }
  const NeighborTable& table() const { return table_; }
  const JoinStats& join_stats() const { return stats_; }
  // The current join's silent-past-deadline peers (see
  // JoinConversation::suspects; empty once the node settled). The chaos
  // engine's quarantine oracle reads this to attribute an abandoned join: a
  // joiner whose suspects include a genuinely crashed node can abandon
  // without any misbehaving peer's help.
  std::span<const NodeId> join_suspects() const {
    return join_ ? join_->suspects.items() : std::span<const NodeId>{};
  }

  // Records the node's own transport endpoint; called by Overlay at
  // registration, before any message flows.
  void bind_host(HostId host) { self_host_ = host; }
  // Charges a send to the node's per-join counts; called by
  // Overlay::send_message for every message the node sends.
  void count_send(MessageType type) { stats_.count_send(type); }

  // ---- Construction paths for members of the initial network V ----

  // Section 6.1: the single initial node of a network. Fills only its own
  // entries and is immediately an S-node.
  void become_seed() { start_in_system(); }

  // Direct installation of a (consistent) table entry by NetworkBuilder;
  // node must not have started joining. State is S (builder-made networks
  // contain only S-nodes). The neighbor's endpoint is resolved lazily on
  // first send.
  void install_entry(std::uint32_t level, std::uint32_t digit,
                     const NodeId& neighbor);
  // Installs a redundant neighbor (direct construction only).
  void install_backup(std::uint32_t level, std::uint32_t digit,
                      const NodeId& neighbor, std::uint32_t max_backups) {
    table_.offer_backup(level, digit, neighbor, max_backups);
  }

  // Marks the node in_system after install_entry calls; fills own entries.
  void finish_install() { start_in_system(); }

  // Registers a reverse neighbor directly (the offline optimizer's path).
  void install_reverse_neighbor(const NodeId& v) {
    table_.add_reverse_neighbor(v);
  }
  // Installs the complete reverse-neighbor set at once, at rest (used by
  // NetworkBuilder so that pre-built networks have complete sets).
  void install_reverse_set(std::vector<NodeId> storers) {
    table_.assign_reverse_neighbors(std::move(storers));
  }

  // Releases growth slack in the table's backup vectors after the
  // builder's last install_backup (NeighborTable::shrink_backups).
  void compact_backups() { table_.shrink_backups(); }

  // ---- Offline optimization hooks (core/optimize.h) ----
  // Rebinds a filled entry to another member of the same suffix class and
  // drops a stale reverse-neighbor registration. Only valid on S-nodes;
  // reverse bookkeeping is the optimizer's responsibility.
  void rebind_entry(std::uint32_t level, std::uint32_t digit,
                    const NodeId& node);
  void drop_reverse_neighbor(const NodeId& v) {
    table_.remove_reverse_neighbor(v);
  }

  // ---- The join protocol ----

  // Figure 5: begin joining via gateway g0 (assumed to be an S-node of V).
  void start_join(const NodeId& g0);

  // True when no join-conversation state is outstanding: no reply awaited,
  // no deferred JoinWaitMsg sender unanswered. The chaos oracles assert
  // this on every in-system node at quiescence — leaked entries there are
  // replies that will never come or waiters never answered. (Q_n / Q_sn
  // are deliberately NOT included: they are the paper's permanent dedup
  // memory of who was already notified.)
  bool join_idle() const {
    return join_ == nullptr ||
           (join_->q_replies.empty() && join_->q_join_waiters.empty() &&
            join_->q_spe_replies.empty());
  }

  // ---- The leave protocol (extension; see leave_protocol.cpp) ----
  void start_leave();
  // True from start_leave until the departure completes.
  bool leave_in_progress() const { return leave_ != nullptr; }
  bool has_departed() const { return status_ == NodeStatus::kDeparted; }

  // ---- Failure recovery (extension; see repair_protocol.cpp) ----
  void mark_crashed() { set_status(NodeStatus::kCrashed); }
  bool is_crashed() const { return status_ == NodeStatus::kCrashed; }

  // Crash-recovery lifecycle: brings a crashed node back with the same
  // NodeId. Every piece of pre-crash protocol state is wiped — table,
  // reverse neighbors, every conversation — but the attempt-generation
  // counter survives and the rejoin bumps it past every pre-crash attempt,
  // so in-flight replies addressed to the old incarnation (they echo a
  // pre-crash generation) are rejected as stale. The node then re-enters
  // the join protocol via `gateway` (a live S-node). Its transport
  // endpoint stays bound: same NodeId, same host.
  void restart(const NodeId& gateway);

  // ping_timeout_ms <= 0 uses kRepairPingTimeoutMs.
  void start_repair(SimTime ping_timeout_ms = 0.0);
  // True while pings, repair queries or candidate validations are
  // outstanding.
  bool repair_in_progress() const { return repair_ != nullptr; }
  // Push phase of a repair round: sends AnnounceMsg(table) to every
  // neighbor and reverse neighbor so they can fill entries whose class
  // lost its only inbound pointer. Run after the ping phase quiesces.
  void announce_table();

  // Message dispatch; `msg.sender` is the sender's overlay ID (the
  // envelope) and `from_host` its transport endpoint, handed through from
  // the delivery so replies need no hash lookup.
  void handle(HostId from_host, const Message& msg);

 private:
  // The state of one join (Figure 3's variables plus the copy cursor):
  // created by start_join, dropped when the node switches to S-node or
  // restarts. A node that is not joining holds none — except a leaving
  // node that defers a JoinWaitMsg, which opens one for Q_j alone. The
  // notification level is JoinStats::noti_level.
  struct JoinConversation {
    // Copying-phase cursor (Figure 5's i and g) and the original gateway
    // the watchdog restarts from.
    std::uint32_t copy_level = 0;
    NodeId copy_from;
    NodeId gateway;
    NodeIdSet q_replies;   // Q_r: nodes we await replies from
    NodeIdSet q_notified;  // Q_n: nodes we sent notifications to
    // Q_j: deferred JoinWaitMsg senders, each with the generation its
    // request carried (the eventual reply must echo it). Insertion-ordered:
    // the switch_to_s_node drain answers waiters in arrival order.
    FlatNodeMap<std::uint32_t> q_join_waiters;
    NodeIdSet q_spe_replies;   // Q_sr: SpeNoti replies outstanding (key: y)
    NodeIdSet q_spe_notified;  // Q_sn: nodes announced via SpeNotiMsg
    // Peers recorded silent-past-deadline (reply-janitor expiry, or left
    // in an outstanding-reply set when the watchdog aborted an attempt).
    // Persists across watchdog restarts — that persistence is what lets
    // suspect-aware rotation route the next attempt around them. The
    // overlay-wide count of recordings exports as "join.suspected_peers"
    // (Overlay::JoinCounters).
    NodeIdSet suspects;
  };

  // The state of one departure: created by start_leave, dropped when the
  // node departs or restarts.
  struct LeaveConversation {
    NodeIdSet notified;  // reverse neighbors sent a LeaveMsg
    NodeIdSet unacked;   // subset of the above still owing a LeaveRly
    std::uint32_t retries = 0;
  };

  // The outstanding conversations of a repair round: created by
  // start_repair, dropped as soon as nothing is outstanding
  // (end_repair_if_idle) or the node restarts.
  struct RepairRound {
    // A probed neighbor -> the generation of its outstanding probe (stale
    // timeouts compare generations). Insertion-ordered: start_repair
    // schedules every probe's timeout at the same instant, so this map's
    // order is the timeout firing order.
    FlatNodeMap<std::uint64_t> pending_pings;
    // A vacated entry (packed slot) -> the number of repair replies still
    // expected plus the node presumed dead (candidates naming it are
    // rejected). Keyed by slot, not NodeId, and never iterated, so a heap
    // hash map costs nothing deterministic here.
    struct Repair {
      std::size_t replies_expected;
      NodeId dead;
    };
    std::unordered_map<std::uint64_t, Repair> pending_repairs;
    // Misbehaving-peer hardening (ProtocolOptions::
    // validate_repair_candidates, DESIGN.md §14): candidates offered by
    // RepairRlyMsg awaiting their liveness probe before installation.
    // Keyed by candidate — a candidate covers exactly one of our slots,
    // (|csuf|, candidate[|csuf|]) — with the slot and probe generation.
    struct Validation {
      std::uint32_t level;
      std::uint32_t digit;
      std::uint64_t generation;
    };
    FlatNodeMap<Validation> pending_validations;
    // The round's ping timeout (the last start_repair's argument).
    SimTime timeout_ms = kRepairPingTimeoutMs;
  };

  const IdParams& params() const { return table_.params(); }

  // ---- Shared helpers (node.cpp) ----

  // become_seed and finish_install: fills the node's own entries with
  // state S and makes it an S-node at once.
  void start_in_system();

  // The one write path for `status_`: records the transition and reports
  // it to the overlay (Overlay -> on_status_change -> span tracer). The
  // notification fires unconditionally, same-status transitions included.
  void set_status(NodeStatus next);

  // Hands the message to the overlay, which counts it, stamping the
  // generation: reply-like types (echoes_request_gen) carry handling_gen_,
  // everything else attempt_gen_. The two-argument form resolves the
  // destination in the overlay's registry (one lookup); the
  // three-argument form uses a pre-resolved endpoint (none). send_with_gen
  // overrides the stamp — for replies sent outside the request's handler
  // (the deferred JoinWaitRlyMsg of Figure 13).
  void send(const NodeId& to, MessageBody body);
  void send(const NodeId& to, HostId to_host, MessageBody body);
  void send_with_gen(const NodeId& to, HostId to_host, MessageBody body,
                     std::uint32_t gen);

  // Fills (level, digit) := node if empty; sends RvNghNotiMsg to the node.
  // Returns true if the entry was filled by this call.
  bool fill_if_empty(std::uint32_t level, std::uint32_t digit,
                     const NodeId& node, NeighborState state);
  // Copy-phase assignment (Figure 5): entries at a level being copied are
  // empty by construction; checks that and fills.
  void copy_entry(std::uint32_t level, std::uint32_t digit,
                  const NodeId& node, NeighborState state);

  // Cached endpoint of the (level, digit) neighbor, resolving and memoizing
  // on first use (entries installed by the direct builder start unresolved).
  HostId entry_host(std::uint32_t level, std::uint32_t digit);

  // ---- Join (join_protocol.cpp) ----

  // The join's conversation, opened on first use (see JoinConversation).
  JoinConversation& join_conv() {
    if (!join_) join_ = std::make_unique<JoinConversation>();
    return *join_;
  }

  void begin_attempt();                                   // (re)start Figure 5
  void arm_join_watchdog();
  void on_join_watchdog(std::uint32_t gen);
  void rotate_gateway();  // see on_join_watchdog
  // Misbehaving-peer hardening (ProtocolOptions::reply_timeout_ms /
  // suspect_aware_rotation; DESIGN.md §14). note_suspect records a peer
  // that stayed silent past a deadline; the janitor is a per-notification
  // timer that evicts such a peer from the outstanding-reply set so a
  // reply-dropper cannot pin the join in kNotifying.
  void note_suspect(const NodeId& peer);
  void arm_reply_janitor(const NodeId& peer, bool spe);
  void on_reply_janitor(const NodeId& peer, std::uint32_t gen, bool spe);
  // True (and counted) when the message being handled carries the
  // generation of an aborted attempt.
  bool reject_stale_reply();
  void finish_copying_and_wait(const NodeId& target);     // tail of Figure 5
  void check_ngh_table(const TableSnapshot& snap);        // Figure 8
  void send_join_noti(const NodeId& target);
  JoinNotiRlyMsg build_join_noti_rly(bool positive, bool flag,
                                     const JoinNotiMsg& request) const;
  void maybe_switch_to_s_node();
  void switch_to_s_node();                                // Figure 13

  void on_cp_rly(const NodeId& g, const CpRlyMsg& msg);   // copying loop body
  void on_join_wait(const NodeId& x, HostId x_host);      // Figure 6
  void on_join_wait_rly(const NodeId& y, const JoinWaitRlyMsg& m);  // Fig. 7
  void on_join_noti(const NodeId& x, HostId x_host,
                    const JoinNotiMsg& m);                // Figure 9
  void on_join_noti_rly(const NodeId& y, const JoinNotiRlyMsg& m);  // Fig. 10
  void on_spe_noti(const SpeNotiMsg& m);                  // Figure 11
  void on_spe_noti_rly(const SpeNotiRlyMsg& m);           // Figure 12
  void on_in_sys_noti(const NodeId& x);                   // Figure 14
  void on_rv_ngh_noti(const NodeId& x, HostId x_host, const RvNghNotiMsg& m);
  void on_rv_ngh_noti_rly(const NodeId& y, const RvNghNotiRlyMsg& m);

  // ---- Leave (leave_protocol.cpp) ----

  // Sends a LeaveMsg to one reverse neighbor and records it (also used
  // when a node registers as a reverse neighbor mid-leave). kLeaving only.
  void send_leave_to(const NodeId& v);
  bool leave_notified(const NodeId& v) const {
    return leave_ != nullptr && leave_->notified.contains(v);
  }
  void send_leave_msg(const NodeId& v);  // the wire send, no bookkeeping
  void depart();
  void arm_leave_watchdog();
  void on_leave_watchdog(std::uint64_t epoch);

  void on_leave(const NodeId& x, HostId x_host, const LeaveMsg& m);
  void on_leave_rly(const NodeId& v);
  void on_ngh_drop(const NodeId& x);

  // ---- Repair (repair_protocol.cpp) ----

  void on_ping_timeout(const NodeId& u, std::uint64_t generation);
  void begin_entry_repair(std::uint32_t level, std::uint32_t digit,
                          const NodeId& dead);
  void on_validation_timeout(const NodeId& candidate,
                             std::uint64_t generation);
  void end_repair_if_idle();

  void on_pong(const NodeId& u);
  void on_repair_query(const NodeId& x, HostId x_host,
                       const RepairQueryMsg& m);
  void on_repair_rly(const RepairRlyMsg& m);
  void on_announce(const NodeId& x, const AnnounceMsg& m);

  Overlay& overlay_;

  NeighborTable table_;
  JoinStats stats_;
  HostId self_host_ = kNoHost;  // bound by Overlay at registration
  NodeStatus status_ = NodeStatus::kCopying;
  bool started_ = false;  // join or install started

  // Generation tags (robustness extension). attempt_gen_ identifies the
  // node's current join attempt; the join-stall watchdog bumps it when it
  // aborts a stuck attempt, which invalidates every reply addressed to the
  // old one. handling_gen_ is the generation carried by the message being
  // handled right now (set by handle before dispatch); replies echo it, so
  // it propagates a request's generation back to the requester.
  std::uint32_t attempt_gen_ = 0;
  std::uint32_t handling_gen_ = 0;

  std::unique_ptr<JoinConversation> join_;
  std::unique_ptr<LeaveConversation> leave_;
  std::unique_ptr<RepairRound> repair_;
  // Timer guards kept outside the conversations, so a timer that outlives
  // its conversation fires inert. leave_epoch_ is bumped by every leave
  // and restart (a leave watchdog fires inert when its captured epoch is
  // stale); ping_generation_ tags each repair probe (a timeout compares
  // its probe's generation).
  std::uint64_t leave_epoch_ = 0;
  std::uint64_t ping_generation_ = 0;
};

}  // namespace hcube
