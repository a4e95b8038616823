// Misbehaving-node tier of the chaos engine (DESIGN.md §14).
//
// The fail-stop schedules of chaos/schedule.h model nodes that die; this
// layer models nodes that are *alive and wrong*. A seeded subset of settled
// S-nodes is marked misbehaving with composable profiles:
//
//   kStaleTable    — answers join/repair requests (CpRst, JoinWait,
//                    JoinNoti, RepairQuery) from a table snapshot frozen at
//                    marking time: plausible, well-formed, and wrong. The
//                    node claims to store joiners it never stores and hands
//                    out long-dead repair candidates.
//   kReplyDropper  — swallows a configurable set of inbound message types
//                    without ever responding (default: the notification and
//                    repair-query requests, so honest joins can still walk
//                    and wait through the dropper but never get its
//                    replies).
//
// Implementation is an interposition seam at the Overlay delivery boundary
// (Overlay::delivery_interceptor): inbound deliveries to a marked node are
// consumed or answered here, and the honest protocol code in src/core/ is
// never touched. Interception is inbound-only by design — a marked node's
// own outbound protocol activity (its repair probes, its announces) stays
// honest, which is exactly the profile of a node with a wedged request path
// but a live event loop. Misbehavior is also a property of a *live settled*
// node: deliveries to a crashed/departed/joining adversary fall through to
// the real handler so lifecycle semantics (crash silence, leave acks) stay
// exact.
//
// Everything is deterministic: marking comes from ChurnScript kMisbehave
// steps, crafted replies are pure functions of the frozen snapshot and the
// request, and the engine folds the counters into the run digest.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/overlay.h"
#include "ids/node_set.h"
#include "proto/messages.h"

namespace hcube {

class AdversaryEngine {
 public:
  // Composable misbehavior profiles (ChurnStep::id_index carries the mask
  // of a kMisbehave step).
  static constexpr std::uint32_t kStaleTable = 1u << 0;
  static constexpr std::uint32_t kReplyDropper = 1u << 1;
  static constexpr std::uint32_t kAllProfiles = kStaleTable | kReplyDropper;

  // Default kReplyDropper victim set: notification + repair-query requests.
  // Deliberately excludes CpRstMsg and JoinWaitMsg — a dropper that
  // swallows the copy walk or the structural wait is indistinguishable
  // from a crashed gateway (the watchdog tier already covers that); what
  // this tier exercises is joins that *reach* the notify phase and must
  // still complete around silent peers.
  static constexpr std::uint32_t kDefaultDropMask =
      (1u << static_cast<std::uint32_t>(MessageType::kJoinNoti)) |
      (1u << static_cast<std::uint32_t>(MessageType::kSpeNoti)) |
      (1u << static_cast<std::uint32_t>(MessageType::kRepairQuery));

  // Installs itself on overlay.delivery_interceptor (chaining onto any
  // interceptor already present). With no nodes marked the interceptor is
  // a single empty-set test — digest-neutral by construction.
  explicit AdversaryEngine(Overlay& overlay);

  // The inbound types a kReplyDropper swallows (one mask per engine, as
  // serialized in ChaosConfig::adv_drop_mask).
  void set_drop_mask(std::uint32_t mask) { drop_mask_ = mask; }

  // Marks a settled S-node with the given profile mask; freezes its table
  // snapshot if kStaleTable is in the mask (first marking wins). Returns
  // false (no-op) for an empty mask or a node that is not currently
  // in-system — kMisbehave steps on impossible victims degrade to no-ops,
  // like every other schedule step, which keeps ddmin subsets sound.
  bool mark(Node& node, std::uint32_t profiles);

  bool is_marked(const NodeId& id) const { return marked_.contains(id); }
  // The quarantine set the oracles exclude (chaos/oracles.h).
  const FlatNodeSet& marked() const { return marked_; }

  struct Counters {
    std::uint64_t intercepted = 0;    // deliveries touched (sum of below)
    std::uint64_t stale_replies = 0;  // crafted from a frozen snapshot
    std::uint64_t swallowed = 0;      // dropped without reply
  };
  // Snapshot by value: interception runs on lane threads under sharded
  // execution, so the live counters are relaxed atomics (each lane's
  // increment sequence is deterministic, hence so is the sum; read only at
  // barriers or after a drain).
  Counters counters() const {
    Counters c;
    c.intercepted = counters_.intercepted.load(std::memory_order_relaxed);
    c.stale_replies = counters_.stale_replies.load(std::memory_order_relaxed);
    c.swallowed = counters_.swallowed.load(std::memory_order_relaxed);
    return c;
  }

 private:
  // The profile pipeline for one inbound delivery; true = consumed.
  bool intercept(Node& node, HostId from, const Message& msg);
  void reply_stale(Node& node, HostId to_host, const Message& request,
                   MessageBody body);

  struct Spec {
    std::uint32_t flags = 0;
    TableSnapshot frozen;  // kStaleTable only
  };

  struct AtomicCounters {
    std::atomic<std::uint64_t> intercepted{0};
    std::atomic<std::uint64_t> stale_replies{0};
    std::atomic<std::uint64_t> swallowed{0};
  };

  Overlay& overlay_;
  std::uint32_t drop_mask_ = kDefaultDropMask;
  // Written only at barriers (kMisbehave steps run as driver actions);
  // read by lane threads during epochs — the barrier orders the two.
  std::vector<Spec> specs_;  // dense, indexed by HostId
  FlatNodeSet marked_;
  AtomicCounters counters_;
};

}  // namespace hcube
