// Shared state and plumbing of a protocol node.
//
// The join, leave and repair protocol modules all operate on one NodeCore:
// the node's identity, neighbor table, overlay handle, status and per-join
// statistics, plus the table-write and send helpers whose behavior every
// module must share exactly (fill_if_empty's RvNghNotiMsg notification,
// generation stamping). Node (core/node.h) owns the core and the modules
// and routes incoming messages to them.
#pragma once

#include <array>
#include <cstdint>

#include "core/neighbor_table.h"
#include "ids/node_set.h"
#include "ids/node_id.h"
#include "util/metric.h"
#include "proto/conformance.h"
#include "proto/messages.h"
#include "sim/event_queue.h"
#include "util/check.h"
#include "util/host.h"

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

// The state every protocol module shares. Plain struct by design: the
// modules are the behavior, this is the data they agree on.
struct NodeCore {
  NodeCore(NodeId id, const IdParams& params, Overlay& overlay_arg,
           Arena* arena = nullptr);

  // The node's identity lives in its table header.
  const NodeId& id() const { return table.owner(); }
  const IdParams& params() const { return table.params(); }

  Overlay& overlay;

  NeighborTable table;
  JoinStats stats;
  HostId self_host = kNoHost;  // bound by Overlay at registration
  NodeStatus status = NodeStatus::kCopying;
  bool started = false;  // join or install started

  // Generation tags (robustness extension). attempt_gen identifies the
  // node's current join attempt; the join-stall watchdog bumps it when it
  // aborts a stuck attempt, which invalidates every reply addressed to the
  // old one. handling_gen is the generation carried by the message being
  // handled right now (set by Node::handle before dispatch); replies echo
  // it, so it propagates a request's generation back to the requester.
  std::uint32_t attempt_gen = 0;
  std::uint32_t handling_gen = 0;

  bool is_s_node() const { return status == NodeStatus::kInSystem; }

  // The one write path for `status`: records the transition and reports it
  // to the overlay (Overlay -> on_status_change -> span tracer). The
  // notification fires unconditionally, same-status transitions included.
  void set_status(NodeStatus next);

  // Crash-recovery lifecycle (Node::restart): wipes the table (including
  // reverse neighbors and backups) and returns the core to its pre-join
  // state. attempt_gen deliberately survives — the rejoin bumps it past
  // every pre-crash attempt, which is what invalidates replies still in
  // flight to the old incarnation. Per-attempt message counters reset with
  // the incarnation (JoinStats::reset_for_new_incarnation); the watchdog-
  // restart budget does not.
  void reset_for_restart();

  // ---- transport helpers ----
  // Hands the message to the overlay, which counts it, stamping the
  // generation: reply-like types (echoes_request_gen) carry handling_gen,
  // everything else attempt_gen. The three-argument form resolves the
  // destination in the overlay's registry (one lookup); the
  // four-argument form uses a pre-resolved endpoint (none). send_with_gen
  // overrides the stamp — for replies sent outside the request's handler
  // (the deferred JoinWaitRlyMsg of Figure 13).
  void send(const NodeId& to, MessageBody body);
  void send(const NodeId& to, HostId to_host, MessageBody body);
  void send_with_gen(const NodeId& to, HostId to_host, MessageBody body,
                     std::uint32_t gen);

  // ---- table write helpers ----
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
};

}  // namespace hcube
