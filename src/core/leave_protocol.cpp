// Graceful-departure protocol (extension; the paper defers leaving to
// future work, Section 7): the leave handlers of Node (core/node.h).
//
// The leaver sends each reverse neighbor v a LeaveMsg carrying its table
// rows at levels >= k+1 (k = |csuf|), which by consistency of the leaver's
// table contain a replacement for v's entry whenever one exists anywhere in
// the network; v repairs (or nulls) the entry locally and acks. The
// leaver's own neighbors get an NghDropMsg so their reverse-neighbor sets
// stay exact. Departure completes (status kDeparted) when every ack
// arrived. Supported under the same regime the paper assumes for joins: no
// concurrent membership change touching the same suffix classes.
//
// Robustness extension: a leave-stall watchdog. A reverse neighbor that
// crashes between receiving our LeaveMsg and acking it would otherwise
// strand the leaver in kLeaving forever. When ProtocolOptions::
// leave_watchdog_ms > 0, unanswered LeaveMsgs are re-sent (they are
// idempotent: the receiver's entry is already repaired, so it just acks
// again) up to leave_max_retries times; after that the leaver presumes the
// silent peers dead and departs unilaterally. That is sound under the
// fail-stop model: a dead peer needs no notification, and a peer that was
// merely unreachable still holds a pointer to a now-silent node — exactly
// the dangling state the repair protocol detects (ping timeout) and
// reclaims.
#include "core/node.h"
#include "core/overlay.h"
#include "util/check.h"

namespace hcube {

void Node::send_leave_msg(const NodeId& v) {
  // v stores us at entry (k, id[k]), whose class is our (k+1)-digit
  // suffix. Candidates are ALL our table rows at levels >= k+1: every such
  // entry shares >= k+1 digits with us, and if any other member y of the
  // class exists, our entry (|csuf(us, y)|, y-digit) is non-null and != us
  // by consistency (a). The level-(k+1) row alone is NOT enough — members
  // hiding behind our own level-(k+1) digit only appear in deeper rows.
  const auto k = static_cast<std::uint32_t>(id().csuf_len(v));
  LeaveMsg msg;
  if (k + 1 < params().num_digits)
    msg.candidates = table_.snapshot(k + 1, params().num_digits - 1);
  send(v, std::move(msg));
}

void Node::send_leave_to(const NodeId& v) {
  HCUBE_DCHECK(leave_ != nullptr);
  send_leave_msg(v);
  leave_->notified.insert(v);
  leave_->unacked.insert(v);
}

void Node::start_leave() {
  HCUBE_CHECK_MSG(status_ == NodeStatus::kInSystem,
                  "only an S-node may leave gracefully");
  set_status(NodeStatus::kLeaving);
  ++leave_epoch_;
  leave_ = std::make_unique<LeaveConversation>();
  for (const NodeId& v : table_.reverse_neighbors()) {
    send_leave_to(v);
  }
  // Each distinct neighbor once, in level-major first-appearance order.
  NodeIdSet dropped;
  table_.for_each_filled(
      [&](std::uint32_t, std::uint32_t, const NodeId& y, NeighborState) {
        if (y != id() && dropped.insert(y)) send(y, NghDropMsg{});
      });
  if (leave_->unacked.empty()) {
    depart();
    return;
  }
  arm_leave_watchdog();
}

void Node::depart() {
  leave_.reset();
  set_status(NodeStatus::kDeparted);
}

void Node::arm_leave_watchdog() {
  const double delay_ms = overlay_.options().leave_watchdog_ms;
  if (delay_ms <= 0.0) return;
  const std::uint64_t epoch = leave_epoch_;
  overlay_.schedule(delay_ms, [this, epoch] { on_leave_watchdog(epoch); });
}

void Node::on_leave_watchdog(std::uint64_t epoch) {
  if (epoch != leave_epoch_) return;  // restart or a newer leave superseded
  if (status_ != NodeStatus::kLeaving) return;
  if (leave_->retries >= overlay_.options().leave_max_retries) {
    // The silent peers are presumed dead (fail-stop); depart without their
    // acks. A peer that was merely unreachable now points at a silent node,
    // which the repair protocol detects and reclaims like any crash.
    ++overlay_.lane_join_counters().forced_departures;
    depart();
    return;
  }
  ++leave_->retries;
  for (const NodeId& v : leave_->unacked) send_leave_msg(v);
  arm_leave_watchdog();
}

void Node::on_leave(const NodeId& x, HostId x_host, const LeaveMsg& m) {
  // x no longer stores us.
  table_.remove_reverse_neighbor(x);
  const auto k = static_cast<std::uint32_t>(id().csuf_len(x));
  const Digit jd = x.digit(k);
  if (status_ == NodeStatus::kLeaving) {
    // We are on the way out ourselves: our table will never be read again,
    // and repairing it would register us as a fresh reverse neighbor of the
    // replacement — a pointer that would dangle the moment we depart.
    send(x, x_host, LeaveRlyMsg{});
    return;
  }
  // The leaver is no longer a valid redundant neighbor either. (Backups
  // are repaired from the LeaveMsg candidates, not promoted: a remembered
  // backup may itself have left since — backups are not reverse-tracked.)
  table_.purge_backup(k, jd, x);
  if (table_.holds(k, jd, x)) {
    const SnapshotEntry* replacement = nullptr;
    for (const SnapshotEntry& e : m.candidates.entries) {
      if (e.node == x) continue;  // the leaver itself
      // Candidates all share the leaver's (k+1)-digit suffix, which equals
      // our entry's desired suffix; double-check defensively.
      if (e.node.csuf_len(id()) >= k && e.node.digit(k) == jd) {
        replacement = &e;
        if (e.state == NeighborState::kS) break;  // prefer a settled node
      }
    }
    if (replacement != nullptr) {
      const HostId host = overlay_.host_of(replacement->node);
      table_.set(k, jd, replacement->node, replacement->state, host);
      send(replacement->node, host, RvNghNotiMsg{replacement->state});
    } else {
      // The leaver was the last member of the entry's class: null is now
      // the consistent value (Definition 3.8(b)).
      table_.clear(k, jd);
    }
  }
  send(x, x_host, LeaveRlyMsg{});
}

void Node::on_leave_rly(const NodeId& v) {
  // Tolerated after departure: an ack that lost the race against the
  // leave watchdog's unilateral exit (kLeaveRly is declared legal at
  // kDeparted), or a duplicate ack for a re-sent LeaveMsg.
  if (status_ != NodeStatus::kLeaving) return;
  leave_->unacked.erase(v);
  if (leave_->unacked.empty()) depart();
}

void Node::on_ngh_drop(const NodeId& x) {
  table_.remove_reverse_neighbor(x);
}

}  // namespace hcube
