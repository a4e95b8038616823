// A protocol node: one NodeCore (identity, table, stats) plus the three
// protocol modules that animate it —
//
//   JoinProtocol   (join_protocol.h)   Section 4, Figures 5-14
//   LeaveProtocol  (leave_protocol.h)  graceful departure (extension)
//   RepairProtocol (repair_protocol.h) fail-stop recovery (extension)
//
// Node owns the pieces, exposes the construction paths used by
// NetworkBuilder and the offline optimizer, and routes every incoming
// message to the right module in handle(). Protocol semantics live in the
// modules; this file is wiring.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/join_protocol.h"
#include "core/leave_protocol.h"
#include "core/node_core.h"
#include "core/repair_protocol.h"

namespace hcube {

class Node {
 public:
  // Created by Overlay::add_node, which passes itself as the environment
  // and its arena for the neighbor table's columns (null = the table owns
  // a private exact-fit buffer).
  Node(NodeId id, const IdParams& params, Overlay& overlay,
       Arena* arena = nullptr);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const NodeId& id() const { return core_.id(); }
  NodeStatus status() const { return core_.status; }
  bool is_s_node() const { return core_.is_s_node(); }
  std::uint32_t noti_level() const { return core_.stats.noti_level; }
  const NeighborTable& table() const { return core_.table; }
  const JoinStats& join_stats() const { return core_.stats; }
  // Silent-past-deadline peers of the current join (join_protocol.h; read
  // by the chaos quarantine oracle for abandon attribution).
  std::span<const NodeId> join_suspects() const { return join_.suspects(); }

  // Records the node's own transport endpoint; called by Overlay at
  // registration, before any message flows.
  void bind_host(HostId host) { core_.self_host = host; }
  // Charges a send to the node's per-join counts; called by
  // Overlay::send_message for every message the node sends.
  void count_send(MessageType type) { core_.stats.count_send(type); }

  // ---- Construction paths for members of the initial network V ----

  // Section 6.1: the single initial node of a network. Fills only its own
  // entries and is immediately an S-node.
  void become_seed();

  // Direct installation of a (consistent) table entry by NetworkBuilder;
  // node must not have started joining. State is S (builder-made networks
  // contain only S-nodes). The neighbor's endpoint is resolved lazily on
  // first send.
  void install_entry(std::uint32_t level, std::uint32_t digit,
                     const NodeId& neighbor);
  // Installs a redundant neighbor (direct construction only).
  void install_backup(std::uint32_t level, std::uint32_t digit,
                      const NodeId& neighbor, std::uint32_t max_backups) {
    core_.table.offer_backup(level, digit, neighbor, max_backups);
  }

  // Marks the node in_system after install_entry calls; fills own entries.
  void finish_install();

  // Registers a reverse neighbor directly (the offline optimizer's path).
  void install_reverse_neighbor(const NodeId& v);
  // Installs the complete reverse-neighbor set at once, at rest (used by
  // NetworkBuilder so that pre-built networks have complete sets).
  void install_reverse_set(std::vector<NodeId> storers) {
    core_.table.assign_reverse_neighbors(std::move(storers));
  }

  // Releases growth slack in the table's backup vectors after the
  // builder's last install_backup (NeighborTable::shrink_backups).
  void compact_backups() { core_.table.shrink_backups(); }

  // ---- Offline optimization hooks (core/optimize.h) ----
  // Rebinds a filled entry to another member of the same suffix class and
  // drops a stale reverse-neighbor registration. Only valid on S-nodes;
  // reverse bookkeeping is the optimizer's responsibility.
  void rebind_entry(std::uint32_t level, std::uint32_t digit,
                    const NodeId& node);
  void drop_reverse_neighbor(const NodeId& v);

  // ---- The join protocol ----

  // Figure 5: begin joining via gateway g0 (assumed to be an S-node of V).
  void start_join(const NodeId& g0);

  // No join-conversation state outstanding (chaos oracle: leaked state).
  bool join_idle() const { return join_.idle(); }

  // ---- The leave protocol (extension; see leave_protocol.h) ----
  void start_leave() { leave_.start_leave(); }
  bool leave_in_progress() const { return leave_.in_progress(); }
  bool has_departed() const { return core_.status == NodeStatus::kDeparted; }

  // ---- Failure recovery (extension; see repair_protocol.h) ----
  void mark_crashed() { core_.set_status(NodeStatus::kCrashed); }
  bool is_crashed() const { return core_.status == NodeStatus::kCrashed; }

  // Crash-recovery lifecycle: brings a crashed node back with the same
  // NodeId. Every piece of pre-crash protocol state is wiped — table,
  // reverse neighbors, per-module conversation state — but the attempt-
  // generation counter survives and the rejoin bumps it past every
  // pre-crash attempt, so in-flight replies addressed to the old
  // incarnation (they echo a pre-crash generation) are rejected as stale.
  // The node then re-enters the join protocol via `gateway` (a live
  // S-node). Its transport endpoint stays bound: same NodeId, same host.
  void restart(const NodeId& gateway);

  // ping_timeout_ms <= 0 uses kRepairPingTimeoutMs.
  void start_repair(SimTime ping_timeout_ms = 0.0) {
    repair_.start_repair(ping_timeout_ms);
  }
  bool repair_in_progress() const { return repair_.in_progress(); }
  void announce_table() { repair_.announce_table(); }

  // Message dispatch; `msg.sender` is the sender's overlay ID (the
  // envelope) and `from_host` its transport endpoint, handed through from
  // the delivery so replies need no hash lookup.
  void handle(HostId from_host, const Message& msg);

 private:
  NodeCore core_;
  LeaveProtocol leave_;    // before join_: JoinProtocol holds a reference
  RepairProtocol repair_;
  JoinProtocol join_;
};

}  // namespace hcube
