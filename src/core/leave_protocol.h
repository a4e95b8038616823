// Graceful-departure protocol (extension; the paper defers leaving to
// future work, Section 7).
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
#pragma once

#include <cstdint>
#include <memory>

#include "core/node_core.h"

namespace hcube {

class LeaveProtocol {
 public:
  explicit LeaveProtocol(NodeCore& core) : core_(core) {}

  void start_leave();

  // Crash-recovery lifecycle: forgets a half-finished departure of the
  // previous incarnation (its pending acks will be rejected upstream).
  void reset() {
    conv_.reset();
    ++leave_epoch_;
  }

  // True from start_leave until the departure completes.
  bool in_progress() const { return conv_ != nullptr; }

  // Sends a LeaveMsg to one reverse neighbor (also used by the join module
  // when a node registers as a reverse neighbor mid-leave). kLeaving only.
  void send_leave_to(const NodeId& v);
  bool has_notified(const NodeId& v) const {
    return conv_ != nullptr && conv_->notified.contains(v);
  }

  // ---- message handlers ----
  void on_leave(const NodeId& x, HostId x_host, const LeaveMsg& m);
  void on_leave_rly(const NodeId& v);
  void on_ngh_drop(const NodeId& x);

 private:
  // The state of one departure: created by start_leave, dropped when the
  // node departs or restarts.
  struct Conversation {
    NodeIdSet notified;  // reverse neighbors sent a LeaveMsg
    NodeIdSet unacked;   // subset of the above still owing a LeaveRly
    std::uint32_t retries = 0;
  };

  void send_leave_msg(const NodeId& v);  // the wire send, no bookkeeping
  void depart();
  void arm_watchdog();
  void on_watchdog(std::uint64_t epoch);

  NodeCore& core_;
  std::unique_ptr<Conversation> conv_;
  // Guards pending watchdog timers across reset()/re-leave: a timer fires
  // inert when its captured epoch is stale.
  std::uint64_t leave_epoch_ = 0;
};

}  // namespace hcube
