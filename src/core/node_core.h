// Shared state and plumbing of a protocol node.
//
// The join, leave and repair protocol modules all operate on one NodeCore:
// the node's identity, neighbor table, overlay handle, status and per-join
// statistics, plus the table-write and send helpers whose behavior every
// module must share exactly (fill_if_empty's RvNghNotiMsg notification,
// wire-size accounting). Node (core/node.h) owns the core and the modules
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
#include "util/host.h"

namespace hcube {

// The overlay a node runs in (core/overlay.h): transport, clock, timers,
// the shared ProtocolOptions and the network-wide counters. The protocol
// sources include overlay.h and call it directly.
class Overlay;

// NodeStatus now lives beside the conformance registry
// (proto/conformance.h): the registry maps (NodeStatus × MessageType) to
// handling contracts, so the proto layer owns both axes of that table.

// Canonical registry names for the JoinStats lifetime counters (the
// per-type send counters export under msg.sent.* via obs/collect).
HCUBE_METRIC(kMetricJoinWatchdogRestarts, "join.watchdog_restarts");
HCUBE_METRIC(kMetricJoinStaleRejected, "join.stale_rejected");
HCUBE_METRIC(kMetricJoinForcedDepartures, "join.forced_departures");
HCUBE_METRIC(kMetricJoinBytesSent, "join.bytes_sent");
HCUBE_METRIC(kMetricJoinSuspectedPeers, "join.suspected_peers");
HCUBE_METRIC(kMetricJoinBackoffWaits, "join.backoff_waits");
HCUBE_METRIC(kMetricJoinAdmissionDeferrals, "join.admission_deferrals");

// Per-join bookkeeping the benchmarks read out (Section 5.2 quantities),
// plus the robustness counters of the fault-tolerance extension.
struct JoinStats {
  // 32-bit per-node counters: a single node's per-incarnation message
  // counts never approach 2^32, and at scale these two arrays are live on
  // every node (160 B each saved matters at n=100k). Aggregations widen.
  std::array<std::uint32_t, kNumMessageTypes> sent{};
  std::array<std::uint32_t, kNumMessageTypes> received{};
  std::uint64_t bytes_sent = 0;
  SimTime t_begin = -1.0;  // t^b_x: when the node began joining
  SimTime t_end = -1.0;    // t^e_x: when it became an S-node
  std::uint32_t noti_level = 0;
  // Robustness extension: join attempts aborted-and-restarted by the
  // join-stall watchdog, and replies rejected because they carried the
  // generation tag of an aborted attempt.
  std::uint32_t watchdog_restarts = 0;
  std::uint64_t stale_rejected = 0;
  // Departures completed unilaterally by the leave-stall watchdog after
  // its re-notification budget ran out (see ProtocolOptions).
  std::uint32_t forced_departures = 0;
  // Misbehaving-peer hardening: peers recorded as suspects because they
  // stayed silent past a generation-tagged deadline (an unanswered
  // notification at reply-janitor expiry, or the outstanding-reply set of
  // an attempt the watchdog aborted). Counts recordings, not distinct
  // peers; lifetime counter like the other robustness stats.
  std::uint32_t suspected_peers = 0;
  // Graceful degradation (equilibrium-churn tier): watchdog restarts that
  // waited out a jittered exponential backoff before re-attempting, and —
  // on the gateway side — CpRly answers deferred because the in-flight
  // join backlog was over ProtocolOptions::overload_defer_threshold.
  std::uint32_t backoff_waits = 0;
  std::uint32_t admission_deferrals = 0;

  std::uint64_t sent_of(MessageType t) const {
    return sent[static_cast<std::size_t>(t)];
  }
  // Theorem 3 counts CpRstMsg + JoinWaitMsg; Theorems 4/5 count JoinNotiMsg.
  std::uint64_t copy_plus_wait() const {
    return sent_of(MessageType::kCpRst) + sent_of(MessageType::kJoinWait);
  }

  // Crash-recovery: the new incarnation starts its message accounting from
  // zero (Theorem 3 bounds a single join attempt, and the theorem-bound
  // tests assert per-incarnation counts). The robustness counters survive —
  // the watchdog-restart budget and the stale/forced totals describe the
  // node's whole lifetime.
  void reset_for_new_incarnation() {
    sent.fill(0);
    received.fill(0);
    bytes_sent = 0;
    noti_level = 0;
  }

  // Exports the lifetime counters under their canonical registry names.
  template <class Fn>
  void for_each_metric(Fn&& fn) const {
    fn(kMetricJoinWatchdogRestarts,
       static_cast<std::uint64_t>(watchdog_restarts));
    fn(kMetricJoinStaleRejected, stale_rejected);
    fn(kMetricJoinForcedDepartures,
       static_cast<std::uint64_t>(forced_departures));
    fn(kMetricJoinBytesSent, bytes_sent);
    fn(kMetricJoinSuspectedPeers, static_cast<std::uint64_t>(suspected_peers));
    fn(kMetricJoinBackoffWaits, static_cast<std::uint64_t>(backoff_waits));
    fn(kMetricJoinAdmissionDeferrals,
       static_cast<std::uint64_t>(admission_deferrals));
  }
};

// Dense insertion-ordered set (ids/node_set.h): deterministic iteration —
// protocol loops over these sets schedule same-time events, so their order
// is part of replay determinism — and no per-element heap nodes.
using NodeIdSet = FlatNodeSet;

// The state every protocol module shares. Plain struct by design: the
// modules are the behavior, this is the data they agree on.
struct NodeCore {
  NodeCore(NodeId id_arg, const IdParams& params_arg, Overlay& overlay_arg,
           Arena* arena = nullptr);

  NodeId id;
  IdParams params;
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
  // the incarnation (JoinStats::reset_for_new_incarnation); the robustness
  // counters survive, so the watchdog-restart budget does not reset.
  void reset_for_restart();

  // ---- transport helpers ----
  // Counts the message in stats and hands it to the overlay, stamping the
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
