#include "chaos/adversary.h"

#include <atomic>
#include <utility>

namespace hcube {

namespace {

// Linear scan of a frozen snapshot for one slot. Frozen tables are small
// (n_digits × base entries at most) and consulted only on intercepted
// requests, so no index is worth building.
const SnapshotEntry* frozen_at(const TableSnapshot& snap, std::uint32_t level,
                               std::uint32_t digit) {
  for (const SnapshotEntry& e : snap.entries)
    if (e.level == level && e.digit == digit) return &e;
  return nullptr;
}

}  // namespace

AdversaryEngine::AdversaryEngine(Overlay& overlay) : overlay_(overlay) {
  auto prev = std::move(overlay_.delivery_interceptor);
  overlay_.delivery_interceptor = [this, prev = std::move(prev)](
                                      Node& node, HostId from,
                                      const Message& msg) {
    if (prev && prev(node, from, msg)) return true;
    return intercept(node, from, msg);
  };
}

bool AdversaryEngine::mark(Node& node, std::uint32_t profiles) {
  profiles &= kAllProfiles;
  if (profiles == 0) return false;
  if (node.status() != NodeStatus::kInSystem) return false;
  const HostId host = overlay_.host_of(node.id());
  if (host >= specs_.size()) specs_.resize(host + 1);
  Spec& spec = specs_[host];
  if ((profiles & kStaleTable) && !(spec.flags & kStaleTable))
    spec.frozen = node.table().snapshot_full();
  spec.flags |= profiles;
  marked_.insert(node.id());
  return true;
}

bool AdversaryEngine::intercept(Node& node, HostId from, const Message& msg) {
  if (marked_.empty()) return false;
  const HostId self = overlay_.host_of(node.id());
  if (self >= specs_.size() || specs_[self].flags == 0) return false;
  // Misbehavior is a property of a live settled node; any other lifecycle
  // state keeps its honest semantics (crash silence, departed acks).
  if (node.status() != NodeStatus::kInSystem) return false;
  const Spec& spec = specs_[self];
  const MessageType type = type_of(msg.body);
  const std::uint32_t bit = 1u << static_cast<std::uint32_t>(type);

  if ((spec.flags & kReplyDropper) && (drop_mask_ & bit)) {
    counters_.intercepted.fetch_add(1, std::memory_order_relaxed);
    counters_.swallowed.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (spec.flags & kStaleTable) {
    const NodeId& x = msg.sender;
    switch (type) {
      case MessageType::kCpRst:
        reply_stale(node, from, msg, CpRlyMsg{spec.frozen});
        return true;
      case MessageType::kJoinWait: {
        // Figure 6 against the frozen table. The positive branch is the
        // lie that matters: the adversary claims it stored x without ever
        // writing its real table, so x proceeds to notify believing this
        // peer anchors its suffix class.
        const auto k = static_cast<std::uint32_t>(node.id().csuf_len(x));
        const SnapshotEntry* cur = frozen_at(spec.frozen, k, x.digit(k));
        if (cur != nullptr && cur->node != x) {
          reply_stale(node, from, msg,
                      JoinWaitRlyMsg{false, cur->node, spec.frozen});
        } else {
          reply_stale(node, from, msg, JoinWaitRlyMsg{true, x, spec.frozen});
        }
        return true;
      }
      case MessageType::kJoinNoti: {
        // Figure 9 against the frozen table: the joiner is (almost) never
        // in the snapshot, so the reply is negative and never flags a
        // competitor — but it still carries the whole stale table for the
        // joiner to merge.
        const auto k = static_cast<std::uint32_t>(node.id().csuf_len(x));
        const SnapshotEntry* cur = frozen_at(spec.frozen, k, x.digit(k));
        const bool positive = cur != nullptr && cur->node == x;
        reply_stale(node, from, msg,
                    JoinNotiRlyMsg{positive, spec.frozen, false});
        return true;
      }
      case MessageType::kRepairQuery: {
        // Serves whatever the frozen table held in the queried slot — a
        // candidate that may have been dead for the whole run, which is
        // exactly what validate_repair_candidates defends against.
        const auto& m = std::get<RepairQueryMsg>(msg.body);
        RepairRlyMsg reply;
        reply.level = m.level;
        reply.digit = m.digit;
        if (node.id().csuf_len(x) >= m.level) {
          const SnapshotEntry* cur = frozen_at(spec.frozen, m.level, m.digit);
          if (cur != nullptr) reply.candidate = cur->node;
        }
        reply_stale(node, from, msg, std::move(reply));
        return true;
      }
      default:
        break;  // everything else (pings included) stays honest
    }
  }
  return false;
}

void AdversaryEngine::reply_stale(Node& node, HostId to_host,
                                  const Message& request, MessageBody body) {
  counters_.intercepted.fetch_add(1, std::memory_order_relaxed);
  counters_.stale_replies.fetch_add(1, std::memory_order_relaxed);
  // Sent as the node's own identity, echoing the request generation — a
  // stale reply must be indistinguishable from an honest one on the wire.
  overlay_.send_message(node.id(), request.sender, std::move(body),
                        overlay_.host_of(node.id()), to_host, request.gen);
}

}  // namespace hcube
