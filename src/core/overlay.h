// The overlay: a set of protocol nodes bound to a message transport.
//
// Owns the Node objects, maps overlay IDs to transport endpoints exactly
// once — at registration (in a deployment the IP address rides with every
// ID; here the registry plays that role) — and aggregates message metrics.
// Steady-state sends carry pre-resolved endpoints (the sender's own host
// and the cached host in its table entry), so the hot path does no NodeId
// hashing; the registry is consulted only for cold lookups (kNoHost hints,
// lazy resolution of builder-installed entries, tooling queries).
//
// The transport is a seam (net/transport.h) the overlay neither owns nor
// drives: a World (core/world.h) binds it to its ShardedNet's transport()
// and runs simulated time, and perfbench interposes a tracing shim.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/node.h"
#include "core/options.h"
#include "net/transport.h"
#include "proto/messages.h"
#include "sim/event_queue.h"
#include "sim/shard_context.h"
#include "util/metric.h"
#include "util/rng.h"

namespace hcube {

// Canonical registry names of Overlay::JoinCounters.
HCUBE_METRIC(kMetricJoinStaleRejected, "join.stale_rejected");
HCUBE_METRIC(kMetricJoinForcedDepartures, "join.forced_departures");
HCUBE_METRIC(kMetricJoinSuspectedPeers, "join.suspected_peers");
HCUBE_METRIC(kMetricJoinBackoffWaits, "join.backoff_waits");
HCUBE_METRIC(kMetricJoinAdmissionDeferrals, "join.admission_deferrals");

class Overlay {
 public:
  // Runs over a caller-provided transport (not owned). The overlay must be
  // the transport's only endpoint registrant.
  Overlay(const IdParams& params, const ProtocolOptions& options,
          Transport& transport);

  const IdParams& params() const { return params_; }
  const ProtocolOptions& options() const { return options_; }
  Transport& transport() { return transport_; }

  // ---- membership ----

  // Creates a node (not yet part of the network; call become_seed(),
  // NetworkBuilder installation, or start_join / World::schedule_join
  // next).
  Node& add_node(const NodeId& id);

  // Transport endpoint of a registered node. Nodes resolve a peer once and
  // cache the result in its table entry; tooling uses it for latency
  // queries.
  HostId host_of(const NodeId& id) const;

  Node* find(const NodeId& id);
  const Node* find(const NodeId& id) const;
  Node& at(const NodeId& id);
  const Node& at(const NodeId& id) const;

  const std::vector<std::unique_ptr<Node>>& nodes() const { return nodes_; }
  std::size_t size() const { return nodes_.size(); }

  // The arena every node's neighbor-table columns are drawn from (see
  // util/arena.h and DESIGN.md §13); exposed for bytes/node accounting.
  const Arena& table_arena() const { return arena_; }

  // ---- membership summaries ----

  // True when every node is either an S-node or has gracefully departed.
  bool all_in_system() const;

  // Number of nodes that have not departed.
  std::size_t live_size() const;

  // ---- metrics ----

  // Overlay-wide counters are striped per lane slot (sim/shard_context.h):
  // protocol code increments the slot of the lane it is executing for (lane
  // 0's outside any lane scope, where only the driver thread runs), so
  // sharded workers never write the same counter. Readers merge; merging is
  // deterministic because each lane's sequence of increments is, and reads
  // happen only at barriers (or after a drain) in sharded runs.

  // Every protocol message sent, counted and sized once, in send_message.
  struct Totals {
    std::array<std::uint64_t, kNumMessageTypes> sent{};
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  Totals totals() const { return merged().totals; }
  std::uint64_t sent_of(MessageType t) const {
    return totals().sent[static_cast<std::size_t>(t)];
  }

  // Network-wide deliveries rejected by the conformance registry check
  // (undeclared (status, type) pairs; see proto/conformance.h).
  ConformanceStats conformance() const { return merged().conformance; }

  // Lifetime counts of the robustness extensions' events, summed over every
  // node; obs::collect exports them under join.*.
  struct JoinCounters {
    // Replies rejected because they carried the generation tag of an
    // aborted join attempt.
    std::uint64_t stale_rejected = 0;
    // Departures completed unilaterally by the leave-stall watchdog after
    // its re-notification budget ran out.
    std::uint64_t forced_departures = 0;
    // Peers recorded as suspects because they stayed silent past a
    // generation-tagged deadline (recordings, not distinct peers).
    std::uint64_t suspected_peers = 0;
    // Watchdog restarts that first waited out a jittered backoff.
    std::uint64_t backoff_waits = 0;
    // CpRly answers a gateway deferred because the join backlog was over
    // ProtocolOptions::overload_defer_threshold.
    std::uint64_t admission_deferrals = 0;

    template <class Fn>
    void for_each_metric(Fn&& fn) const {
      fn(kMetricJoinStaleRejected, stale_rejected);
      fn(kMetricJoinForcedDepartures, forced_departures);
      fn(kMetricJoinSuspectedPeers, suspected_peers);
      fn(kMetricJoinBackoffWaits, backoff_waits);
      fn(kMetricJoinAdmissionDeferrals, admission_deferrals);
    }
  };
  JoinCounters join_counters() const { return merged().join; }
  // The calling lane's slot, for protocol code to bump.
  JoinCounters& lane_join_counters() {
    return lanes_[lane_scratch_slot()].join;
  }

  // ---- The node environment (called by Node)

  // Delivers body from `from` to `to` (both overlay node IDs), counting it
  // in totals() and the sender's JoinStats: the one place a send is counted
  // and sized. The drop filter (set_drop_filter), if set, is asked last.
  // The host arguments are pre-resolved transport endpoints when the
  // sender has them cached (kNoHost = resolve here); passing them keeps
  // the steady-state send path free of registry lookups. `gen` is the
  // join-attempt generation stamped into the message envelope (requests
  // carry the sender's current generation, replies echo the request's; see
  // Message in proto/messages.h).
  void send_message(const NodeId& from, const NodeId& to, MessageBody body,
                    HostId from_host = kNoHost, HostId to_host = kNoHost,
                    std::uint32_t gen = 0);
  SimTime now() const { return transport_.queue().now(); }
  // Local timer (watchdogs, janitors, repair ping timeouts).
  void schedule(SimTime delay_ms, std::function<void()> fn) {
    transport_.queue().schedule_after(delay_ms, std::move(fn));
  }
  // A node rejected a delivery whose (status, type) pair the conformance
  // registry does not declare (proto/conformance.h): counted network-wide.
  void note_conformance_reject(MessageType type) {
    ++lanes_[lane_scratch_slot()]
          .conformance.rejected[static_cast<std::size_t>(type)];
  }
  // A node's lifecycle status changed (Node::set_status). Fired for
  // every transition — including a re-entry into the same status, which is
  // how a watchdog-triggered attempt restart (kCopying -> kCopying with a
  // bumped generation) is observable.
  void note_status_change(const NodeId& node, NodeStatus from, NodeStatus to,
                          std::uint32_t attempt_gen) {
    track_join_backlog(node, to);
    if (on_status_change) on_status_change(node, from, to, attempt_gen);
  }
  // O(1) gauge of joins in flight: maintained by a per-host counted bit on
  // every status transition, so gateways can consult it on the admission
  // hot path (ProtocolOptions::overload_defer_threshold) and the chaos
  // engine's equilibrium probes can sample it without an O(n) scan. (A
  // node's very first status is a member initializer, not a set_status
  // call, so entry into the count happens at the kCopying transition
  // begin_attempt fires.) Per-lane deltas (signed: a node may enter the
  // count on one slot and leave it on another across a mode switch) merge
  // to the gauge; with more than one lane protocol code must not read this
  // mid-epoch (the chaos engine allows the degrade options on one lane
  // only, for exactly this reason), only at barriers.
  std::uint32_t join_backlog() const {
    std::int64_t n = 0;
    for (const LaneCounters& lane : lanes_) n += lane.join_backlog;
    return static_cast<std::uint32_t>(n);
  }
  // [0.5, 1.5) from the overlay-wide jitter stream (seeded by
  // ProtocolOptions::backoff_seed). One stream per overlay, not per node —
  // draws happen in event-execution order, which the simulator already
  // pins, so enabling backoff keeps runs bit-reproducible.
  double backoff_jitter() { return 0.5 + backoff_rng_.next_double(); }

  // Fired for every protocol message sent: the source of per-node,
  // per-type detail (what a node sent, what it was sent). Chain rather than
  // replace when attaching a second observer (obs::JoinSpanTracer::attach
  // does this).
  std::function<void(const NodeId& from, const NodeId& to,
                     const MessageBody& body)>
      on_message;

  // Fired for every node lifecycle transition (Node::set_status),
  // same-status re-entries included — a kCopying -> kCopying with a bumped
  // generation is a watchdog attempt restart. Chain rather than replace;
  // obs::JoinSpanTracer::attach chains onto this.
  std::function<void(const NodeId& node, NodeStatus from, NodeStatus to,
                     std::uint32_t attempt_gen)>
      on_status_change;

  // Interposition seam at the delivery boundary: consulted for every
  // message arriving at a node's transport endpoint, before Node::handle.
  // Return true to consume the delivery (the node never sees it) — the
  // interceptor may instead answer as the node, delay it, or drop it. The
  // chaos layer's AdversaryEngine (chaos/adversary.h) installs its
  // misbehavior profiles here so honest protocol code stays untouched;
  // unset (the default) the delivery path is byte-identical to before the
  // seam existed. Chain rather than replace when attaching a second
  // interceptor.
  std::function<bool(Node& node, HostId from, const Message& msg)>
      delivery_interceptor;

  // Failure injection for tests: messages for which the filter returns true
  // are silently lost. The protocol assumes reliable delivery (assumption
  // (iii) in Section 3.1); this hook exists to demonstrate what that
  // assumption protects against and that the consistency checker detects
  // the resulting damage. send_message applies it after counting the
  // message and firing on_message, before any transport sees it: a
  // filtered message is "never sent" below the overlay (no sequence
  // number, no retransmission, no transport counter). Null clears it.
  using DropFilter = std::function<bool(const NodeId& from, const NodeId& to,
                                        const MessageBody& body)>;
  void set_drop_filter(DropFilter filter) { drop_filter_ = std::move(filter); }

 private:
  // Flips the node's counted bit when it enters/leaves a joining status and
  // keeps join_backlog() equal to the number of set bits.
  void track_join_backlog(const NodeId& node, NodeStatus to);

  IdParams params_;
  ProtocolOptions options_;
  Transport& transport_;
  DropFilter drop_filter_;  // see set_drop_filter
  // Backing store for every node's neighbor-table columns. Declared before
  // nodes_ for the usual member-order reason, though nothing in a Node's
  // destructor touches column memory.
  Arena arena_;
  // nodes_ is dense, indexed by HostId; registry_ resolves NodeId -> host
  // as a dense array indexed by the ID's interner ref (no hashing even on
  // cold lookups). kNoHost = that ref is not a member of this overlay.
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<HostId> registry_;
  // One lane slot's share of the overlay-wide counters (see the metrics
  // comment above).
  struct LaneCounters {
    Totals totals;
    ConformanceStats conformance;
    JoinCounters join;
    std::int64_t join_backlog = 0;  // signed delta, see join_backlog()
  };
  // One slot per possible lane. A few KB per overlay.
  std::array<LaneCounters, kMaxShardLanes> lanes_;
  // The lane slots summed field by field.
  LaneCounters merged() const;
  // Per-host counted bits backing join_backlog(); grows with nodes_ in
  // add_node. uint8_t, not vector<bool>: neighboring hosts may live on
  // different lanes, and bit-packing would make their flips race.
  std::vector<std::uint8_t> join_counted_;
  // Overlay-wide backoff-jitter stream (see backoff_jitter).
  Rng backoff_rng_;
};

}  // namespace hcube
