#include "core/leave_protocol.h"

#include "core/overlay.h"
#include "util/check.h"

namespace hcube {

void LeaveProtocol::send_leave_msg(const NodeId& v) {
  // v stores us at entry (k, id[k]), whose class is our (k+1)-digit
  // suffix. Candidates are ALL our table rows at levels >= k+1: every such
  // entry shares >= k+1 digits with us, and if any other member y of the
  // class exists, our entry (|csuf(us, y)|, y-digit) is non-null and != us
  // by consistency (a). The level-(k+1) row alone is NOT enough — members
  // hiding behind our own level-(k+1) digit only appear in deeper rows.
  const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(v));
  LeaveMsg msg;
  if (k + 1 < core_.params().num_digits)
    msg.candidates = core_.table.snapshot(k + 1, core_.params().num_digits - 1);
  core_.send(v, std::move(msg));
}

void LeaveProtocol::send_leave_to(const NodeId& v) {
  HCUBE_DCHECK(conv_ != nullptr);
  send_leave_msg(v);
  conv_->notified.insert(v);
  conv_->unacked.insert(v);
}

void LeaveProtocol::start_leave() {
  HCUBE_CHECK_MSG(core_.status == NodeStatus::kInSystem,
                  "only an S-node may leave gracefully");
  core_.set_status(NodeStatus::kLeaving);
  ++leave_epoch_;
  conv_ = std::make_unique<Conversation>();
  for (const NodeId& v : core_.table.reverse_neighbors()) {
    send_leave_to(v);
  }
  // Each distinct neighbor once, in level-major first-appearance order.
  NodeIdSet dropped;
  core_.table.for_each_filled(
      [&](std::uint32_t, std::uint32_t, const NodeId& y, NeighborState) {
        if (y != core_.id() && dropped.insert(y)) core_.send(y, NghDropMsg{});
      });
  if (conv_->unacked.empty()) {
    depart();
    return;
  }
  arm_watchdog();
}

void LeaveProtocol::depart() {
  conv_.reset();
  core_.set_status(NodeStatus::kDeparted);
}

void LeaveProtocol::arm_watchdog() {
  const double delay_ms = core_.overlay.options().leave_watchdog_ms;
  if (delay_ms <= 0.0) return;
  const std::uint64_t epoch = leave_epoch_;
  core_.overlay.schedule(delay_ms, [this, epoch] { on_watchdog(epoch); });
}

void LeaveProtocol::on_watchdog(std::uint64_t epoch) {
  if (epoch != leave_epoch_) return;  // reset() or a newer leave superseded
  if (core_.status != NodeStatus::kLeaving) return;
  if (conv_->retries >= core_.overlay.options().leave_max_retries) {
    // The silent peers are presumed dead (fail-stop); depart without their
    // acks. A peer that was merely unreachable now points at a silent node,
    // which the repair protocol detects and reclaims like any crash.
    ++core_.overlay.lane_join_counters().forced_departures;
    depart();
    return;
  }
  ++conv_->retries;
  for (const NodeId& v : conv_->unacked) send_leave_msg(v);
  arm_watchdog();
}

void LeaveProtocol::on_leave(const NodeId& x, HostId x_host,
                             const LeaveMsg& m) {
  // x no longer stores us.
  core_.table.remove_reverse_neighbor(x);
  const auto k = static_cast<std::uint32_t>(core_.id().csuf_len(x));
  const Digit jd = x.digit(k);
  if (core_.status == NodeStatus::kLeaving) {
    // We are on the way out ourselves: our table will never be read again,
    // and repairing it would register us as a fresh reverse neighbor of the
    // replacement — a pointer that would dangle the moment we depart.
    core_.send(x, x_host, LeaveRlyMsg{});
    return;
  }
  // The leaver is no longer a valid redundant neighbor either. (Backups
  // are repaired from the LeaveMsg candidates, not promoted: a remembered
  // backup may itself have left since — backups are not reverse-tracked.)
  core_.table.purge_backup(k, jd, x);
  if (core_.table.holds(k, jd, x)) {
    const SnapshotEntry* replacement = nullptr;
    for (const SnapshotEntry& e : m.candidates.entries) {
      if (e.node == x) continue;  // the leaver itself
      // Candidates all share the leaver's (k+1)-digit suffix, which equals
      // our entry's desired suffix; double-check defensively.
      if (e.node.csuf_len(core_.id()) >= k && e.node.digit(k) == jd) {
        replacement = &e;
        if (e.state == NeighborState::kS) break;  // prefer a settled node
      }
    }
    if (replacement != nullptr) {
      const HostId host = core_.overlay.host_of(replacement->node);
      core_.table.set(k, jd, replacement->node, replacement->state, host);
      core_.send(replacement->node, host, RvNghNotiMsg{replacement->state});
    } else {
      // The leaver was the last member of the entry's class: null is now
      // the consistent value (Definition 3.8(b)).
      core_.table.clear(k, jd);
    }
  }
  core_.send(x, x_host, LeaveRlyMsg{});
}

void LeaveProtocol::on_leave_rly(const NodeId& v) {
  // Tolerated after departure: an ack that lost the race against the
  // leave watchdog's unilateral exit (kLeaveRly is declared legal at
  // kDeparted), or a duplicate ack for a re-sent LeaveMsg.
  if (core_.status != NodeStatus::kLeaving) return;
  conv_->unacked.erase(v);
  if (conv_->unacked.empty()) depart();
}

void LeaveProtocol::on_ngh_drop(const NodeId& x) {
  core_.table.remove_reverse_neighbor(x);
}

}  // namespace hcube
