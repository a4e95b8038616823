#include "core/node.h"

#include "core/overlay.h"
#include "util/check.h"

namespace hcube {

const char* to_string(SnapshotPolicy p) {
  switch (p) {
    case SnapshotPolicy::kFullTable: return "full-table";
    case SnapshotPolicy::kPartialLevels: return "partial-levels";
    case SnapshotPolicy::kBitVector: return "bit-vector";
  }
  return "?";
}

Node::Node(NodeId id, const IdParams& params, Overlay& overlay, Arena& arena)
    : overlay_(overlay), table_(params, id, &arena) {}

// ---------------------------------------------------------------------------
// Construction paths for members of the initial network V

void Node::start_in_system() {
  HCUBE_CHECK_MSG(!started_, "node already started");
  started_ = true;
  // Section 6.1: N_x(i, x[i]) = x with state S for all i; everything else
  // null (for a seed the network has exactly one node, so all other suffix
  // sets are empty and Definition 3.8(b) demands null; for a builder-made
  // member install_entry already filled them).
  for (std::uint32_t i = 0; i < params().num_digits; ++i)
    table_.set(i, id().digit(i), id(), NeighborState::kS, self_host_);
  set_status(NodeStatus::kInSystem);
  stats_.t_begin = stats_.t_end = overlay_.now();
}

void Node::install_entry(std::uint32_t level, std::uint32_t digit,
                         const NodeId& neighbor) {
  HCUBE_CHECK_MSG(!started_, "cannot install entries after start");
  table_.set(level, digit, neighbor, NeighborState::kS);
}

void Node::rebind_entry(std::uint32_t level, std::uint32_t digit,
                        const NodeId& node) {
  HCUBE_CHECK_MSG(status_ == NodeStatus::kInSystem,
                  "optimization only applies to S-nodes");
  HCUBE_CHECK_MSG(!table_.is_empty(level, digit),
                  "optimization must not fill empty entries");
  table_.set(level, digit, node, NeighborState::kS);
}

void Node::restart(const NodeId& gateway) {
  HCUBE_CHECK_MSG(status_ == NodeStatus::kCrashed,
                  "restart() revives crashed nodes only");
  HCUBE_CHECK_MSG(gateway != id(), "cannot rejoin via self");
  // In-place wipe: the table's column storage (possibly arena memory that
  // is never returned) is reused by the new incarnation.
  table_.reset();
  // Direct write, not set_status: the kCrashed -> kCopying flip is part of
  // reviving the node, not a protocol transition. The span tracer sees the
  // new incarnation when the rejoin's begin_attempt() reports kCopying.
  status_ = NodeStatus::kCopying;
  started_ = false;
  handling_gen_ = 0;
  // Per-attempt message counters reset with the incarnation; the
  // watchdog-restart budget does not.
  stats_.t_end = -1.0;
  stats_.reset_for_new_incarnation();
  // attempt_gen_ deliberately survives: the rejoin bumps it past every
  // pre-crash attempt, which is what invalidates replies still in flight to
  // the old incarnation. A builder-installed member never joined, so its
  // generation is still 0 and the rejoin would run at generation 1 — the
  // join protocol's marker for a virgin first attempt whose ID provably
  // appears in no table. This node's ID is all over the network; make the
  // rejoin look like what it is, a restarted attempt (generation >= 2 after
  // start_join's bump).
  if (attempt_gen_ == 0) attempt_gen_ = 1;
  // Every conversation of the previous incarnation goes; their timers
  // become stale and ignore themselves. A half-finished departure's
  // pending acks will be rejected upstream.
  join_.reset();
  leave_.reset();
  ++leave_epoch_;
  repair_.reset();
  start_join(gateway);
}

// ---------------------------------------------------------------------------
// Shared helpers

void Node::set_status(NodeStatus next) {
  const NodeStatus prev = status_;
  status_ = next;
  overlay_.note_status_change(id(), prev, next, attempt_gen_);
}

void Node::send(const NodeId& to, MessageBody body) {
  send_with_gen(to, kNoHost, std::move(body), 0);
}

void Node::send(const NodeId& to, HostId to_host, MessageBody body) {
  send_with_gen(to, to_host, std::move(body), 0);
}

void Node::send_with_gen(const NodeId& to, HostId to_host, MessageBody body,
                         std::uint32_t gen) {
  const MessageType t = type_of(body);
  if (gen == 0) gen = echoes_request_gen(t) ? handling_gen_ : attempt_gen_;
  overlay_.send_message(id(), to, std::move(body), self_host_, to_host, gen);
}

bool Node::fill_if_empty(std::uint32_t level, std::uint32_t digit,
                         const NodeId& node, NeighborState state) {
  if (!table_.is_empty(level, digit)) {
    // Occupied: remember the node as a redundant neighbor if configured.
    const std::uint32_t max_backups = overlay_.options().backups_per_entry;
    if (max_backups > 0 && node != id())
      table_.offer_backup(level, digit, node, max_backups);
    return false;
  }
  if (node == id()) {
    table_.set(level, digit, node, state, self_host_);
    return true;
  }
  // Resolve the neighbor's endpoint once at fill time; every later send to
  // this entry reads the cached host instead of hashing the ID.
  const HostId host = overlay_.host_of(node);
  table_.set(level, digit, node, state, host);
  // "When any node x sets N_x(i, j) = y, y != x, x needs to send a
  // RvNghNotiMsg(y, N_x(i, j).state) to y" (Section 4).
  send(node, host, RvNghNotiMsg{state});
  return true;
}

void Node::copy_entry(std::uint32_t level, std::uint32_t digit,
                      const NodeId& node, NeighborState state) {
  // During copying nobody else writes our table (no other node knows us
  // yet), and each level is copied exactly once, so the entry is empty.
  HCUBE_CHECK_MSG(table_.is_empty(level, digit),
                  "copy-phase entry unexpectedly filled");
  if (node == id()) {
    table_.set(level, digit, node, state, self_host_);
    return;
  }
  const HostId host = overlay_.host_of(node);
  table_.set(level, digit, node, state, host);
  send(node, host, RvNghNotiMsg{state});
}

HostId Node::entry_host(std::uint32_t level, std::uint32_t digit) {
  const HostId cached = table_.host(level, digit);
  if (cached != kNoHost) return cached;
  const NodeId* node = table_.neighbor(level, digit);
  HCUBE_CHECK_MSG(node != nullptr, "entry_host() of an empty entry");
  const HostId host = overlay_.host_of(*node);
  table_.memo_host(level, digit, host);
  return host;
}

// ---------------------------------------------------------------------------
// Dispatch

void Node::handle(HostId from_host, const Message& msg) {
  if (status_ == NodeStatus::kCrashed)
    return;  // fail-stop: total silence
  const MessageType type = type_of(msg.body);
  // The always-on conformance check: the registry (proto/conformance.h) is
  // the spec of which (status, type) pairs a node may observe. An
  // undeclared pair — a RelAckMsg leaking past the reliable-transport
  // decorator, a join reply addressed to a node that already departed — is
  // rejected before any handler runs, and counted overlay-wide.
  if (!conformance_allows(status_, type)) {
    overlay_.note_conformance_reject(type);
    return;
  }
  if (status_ == NodeStatus::kDeparted) {
    if (type == MessageType::kLeave) {
      // Another leaver racing our departure still needs its ack; we have
      // nothing to repair anymore.
      send(msg.sender, from_host, LeaveRlyMsg{});
    }
    // Every other pair the registry declares legal in kDeparted is a
    // straggler needing no action (an RvNghNotiMsg racing our departure; a
    // ping that deliberately goes unanswered so recovery treats us as
    // dead, which is the right outcome).
    return;
  }
  const NodeId& from = msg.sender;
  // Expose the envelope's generation tag to the handlers: replies sent while
  // handling this message echo it (send_with_gen), and the join handlers
  // compare it against attempt_gen_ to reject stale replies.
  handling_gen_ = msg.gen;
  std::visit(
      Overloaded{
          [&](const CpRstMsg&) {
            // Only S-nodes are ever asked (copy targets carry state S).
            // Overload-aware admission (equilibrium-churn tier): when the
            // environment-wide join backlog is over the configured
            // threshold, defer the snapshot reply instead of answering
            // immediately — copy walks are the fan-out amplifier, so
            // delaying them sheds load while the backlog drains. The
            // deferred reply echoes the request's generation (captured
            // here; handling_gen_ will have moved on) and is skipped if we
            // stopped being an S-node meanwhile — the joiner's watchdog
            // then rotates away, exactly as for a crashed gateway.
            const ProtocolOptions& opt = overlay_.options();
            const std::uint32_t threshold = opt.overload_defer_threshold;
            if (threshold > 0 && overlay_.join_backlog() > threshold) {
              ++overlay_.lane_join_counters().admission_deferrals;
              const std::uint32_t gen = handling_gen_;
              const NodeId requester = from;
              overlay_.schedule(
                  opt.overload_defer_ms, [this, requester, from_host, gen] {
                    if (status_ != NodeStatus::kInSystem) return;
                    send_with_gen(requester, from_host,
                                  CpRlyMsg{table_.snapshot_full()}, gen);
                  });
              return;
            }
            send(from, from_host, CpRlyMsg{table_.snapshot_full()});
          },
          [&](const CpRlyMsg& m) { on_cp_rly(from, m); },
          [&](const JoinWaitMsg&) { on_join_wait(from, from_host); },
          [&](const JoinWaitRlyMsg& m) { on_join_wait_rly(from, m); },
          [&](const JoinNotiMsg& m) { on_join_noti(from, from_host, m); },
          [&](const JoinNotiRlyMsg& m) { on_join_noti_rly(from, m); },
          [&](const InSysNotiMsg&) { on_in_sys_noti(from); },
          [&](const SpeNotiMsg& m) { on_spe_noti(m); },
          [&](const SpeNotiRlyMsg& m) { on_spe_noti_rly(m); },
          [&](const RvNghNotiMsg& m) { on_rv_ngh_noti(from, from_host, m); },
          [&](const RvNghNotiRlyMsg& m) { on_rv_ngh_noti_rly(from, m); },
          [&](const LeaveMsg& m) { on_leave(from, from_host, m); },
          [&](const LeaveRlyMsg&) { on_leave_rly(from); },
          [&](const NghDropMsg&) { on_ngh_drop(from); },
          [&](const PingMsg&) { send(from, from_host, PongMsg{}); },
          [&](const PongMsg&) { on_pong(from); },
          [&](const RepairQueryMsg& m) {
            on_repair_query(from, from_host, m);
          },
          [&](const RepairRlyMsg& m) { on_repair_rly(m); },
          [&](const AnnounceMsg& m) { on_announce(from, m); },
          [&](const RelAckMsg&) {
            // Unreachable: the registry declares no legal status for
            // RelAckMsg, so the conformance check above rejects every
            // delivery (acks belong to the reliable-transport decorator).
            HCUBE_CHECK_MSG(false, "RelAckMsg reached the protocol layer");
          },
      },
      msg.body);
}

}  // namespace hcube
