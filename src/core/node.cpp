#include "core/node.h"

#include "core/overlay.h"
#include "util/check.h"

namespace hcube {
namespace {

template <class... Ts>
struct Overloaded : Ts... {
  using Ts::operator()...;
};
template <class... Ts>
Overloaded(Ts...) -> Overloaded<Ts...>;

}  // namespace

Node::Node(NodeId id, const IdParams& params, Overlay& overlay, Arena* arena)
    : core_(id, params, overlay, arena),
      leave_(core_),
      repair_(core_, leave_),
      join_(core_, leave_) {}

// ---------------------------------------------------------------------------
// Construction paths for members of the initial network V

void Node::become_seed() {
  HCUBE_CHECK_MSG(!core_.started, "node already started");
  core_.started = true;
  // Section 6.1: N_x(i, x[i]) = x with state S for all i; everything else
  // null (the network has exactly one node, so all other suffix sets are
  // empty and Definition 3.8(b) demands null).
  for (std::uint32_t i = 0; i < core_.params().num_digits; ++i)
    core_.table.set(i, core_.id().digit(i), core_.id(), NeighborState::kS,
                    core_.self_host);
  core_.set_status(NodeStatus::kInSystem);
  core_.stats.t_begin = core_.stats.t_end = core_.overlay.now();
}

void Node::install_entry(std::uint32_t level, std::uint32_t digit,
                         const NodeId& neighbor) {
  HCUBE_CHECK_MSG(!core_.started, "cannot install entries after start");
  core_.table.set(level, digit, neighbor, NeighborState::kS);
}

void Node::finish_install() {
  HCUBE_CHECK_MSG(!core_.started, "node already started");
  core_.started = true;
  for (std::uint32_t i = 0; i < core_.params().num_digits; ++i)
    core_.table.set(i, core_.id().digit(i), core_.id(), NeighborState::kS,
                    core_.self_host);
  core_.set_status(NodeStatus::kInSystem);
  core_.stats.t_begin = core_.stats.t_end = core_.overlay.now();
}

void Node::install_reverse_neighbor(const NodeId& v) {
  core_.table.add_reverse_neighbor(v);
}

void Node::rebind_entry(std::uint32_t level, std::uint32_t digit,
                        const NodeId& node) {
  HCUBE_CHECK_MSG(core_.status == NodeStatus::kInSystem,
                  "optimization only applies to S-nodes");
  HCUBE_CHECK_MSG(!core_.table.is_empty(level, digit),
                  "optimization must not fill empty entries");
  core_.table.set(level, digit, node, NeighborState::kS);
}

void Node::drop_reverse_neighbor(const NodeId& v) {
  core_.table.remove_reverse_neighbor(v);
}

void Node::start_join(const NodeId& g0) {
  HCUBE_CHECK_MSG(!core_.started, "node already started");
  HCUBE_CHECK_MSG(g0 != core_.id(), "cannot join via self");
  core_.started = true;
  core_.stats.t_begin = core_.overlay.now();
  join_.start_join(g0);
}

void Node::restart(const NodeId& gateway) {
  HCUBE_CHECK_MSG(core_.status == NodeStatus::kCrashed,
                  "restart() revives crashed nodes only");
  HCUBE_CHECK_MSG(gateway != core_.id(), "cannot rejoin via self");
  core_.reset_for_restart();
  join_.reset();
  leave_.reset();
  repair_.reset();
  core_.started = true;
  core_.stats.t_begin = core_.overlay.now();
  join_.start_join(gateway);
}

// ---------------------------------------------------------------------------
// Dispatch

void Node::handle(HostId from_host, const Message& msg) {
  if (core_.status == NodeStatus::kCrashed)
    return;  // fail-stop: total silence
  const MessageType type = type_of(msg.body);
  // The always-on conformance check: the registry (proto/conformance.h) is
  // the spec of which (status, type) pairs a node may observe. An
  // undeclared pair — a RelAckMsg leaking past the reliable-transport
  // decorator, a join reply addressed to a node that already departed — is
  // rejected before any handler runs, and counted overlay-wide.
  if (!conformance_allows(core_.status, type)) {
    core_.overlay.note_conformance_reject(type);
    return;
  }
  if (core_.status == NodeStatus::kDeparted) {
    if (type == MessageType::kLeave) {
      // Another leaver racing our departure still needs its ack; we have
      // nothing to repair anymore.
      core_.send(msg.sender, from_host, LeaveRlyMsg{});
    }
    // Every other pair the registry declares legal in kDeparted is a
    // straggler needing no action (an RvNghNotiMsg racing our departure; a
    // ping that deliberately goes unanswered so recovery treats us as
    // dead, which is the right outcome).
    return;
  }
  const NodeId& from = msg.sender;
  // Expose the envelope's generation tag to the handlers: replies sent while
  // handling this message echo it (NodeCore::send_with_gen), and the join
  // module compares it against attempt_gen to reject stale replies.
  core_.handling_gen = msg.gen;
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
            // here; handling_gen will have moved on) and is skipped if we
            // stopped being an S-node meanwhile — the joiner's watchdog
            // then rotates away, exactly as for a crashed gateway.
            const ProtocolOptions& opt = core_.overlay.options();
            const std::uint32_t threshold = opt.overload_defer_threshold;
            if (threshold > 0 && core_.overlay.join_backlog() > threshold) {
              ++core_.overlay.lane_join_counters().admission_deferrals;
              const std::uint32_t gen = core_.handling_gen;
              const NodeId requester = from;
              core_.overlay.schedule(
                  opt.overload_defer_ms, [this, requester, from_host, gen] {
                    if (core_.status != NodeStatus::kInSystem) return;
                    core_.send_with_gen(requester, from_host,
                                        CpRlyMsg{core_.table.snapshot_full()},
                                        gen);
                  });
              return;
            }
            core_.send(from, from_host, CpRlyMsg{core_.table.snapshot_full()});
          },
          [&](const CpRlyMsg& m) { join_.on_cp_rly(from, m); },
          [&](const JoinWaitMsg&) { join_.on_join_wait(from, from_host); },
          [&](const JoinWaitRlyMsg& m) { join_.on_join_wait_rly(from, m); },
          [&](const JoinNotiMsg& m) {
            join_.on_join_noti(from, from_host, m);
          },
          [&](const JoinNotiRlyMsg& m) { join_.on_join_noti_rly(from, m); },
          [&](const InSysNotiMsg&) { join_.on_in_sys_noti(from); },
          [&](const SpeNotiMsg& m) { join_.on_spe_noti(m); },
          [&](const SpeNotiRlyMsg& m) { join_.on_spe_noti_rly(m); },
          [&](const RvNghNotiMsg& m) {
            join_.on_rv_ngh_noti(from, from_host, m);
          },
          [&](const RvNghNotiRlyMsg& m) { join_.on_rv_ngh_noti_rly(from, m); },
          [&](const LeaveMsg& m) { leave_.on_leave(from, from_host, m); },
          [&](const LeaveRlyMsg&) { leave_.on_leave_rly(from); },
          [&](const NghDropMsg&) { leave_.on_ngh_drop(from); },
          [&](const PingMsg&) { core_.send(from, from_host, PongMsg{}); },
          [&](const PongMsg&) { repair_.on_pong(from); },
          [&](const RepairQueryMsg& m) {
            repair_.on_repair_query(from, from_host, m);
          },
          [&](const RepairRlyMsg& m) { repair_.on_repair_rly(from, m); },
          [&](const AnnounceMsg& m) { repair_.on_announce(from, m); },
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
