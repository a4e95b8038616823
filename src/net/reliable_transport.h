// Reliable-delivery decorator: acks, retransmission, dedup.
//
// Wraps a SimTransport and gives the layers above at-least-once delivery
// with receiver-side duplicate suppression — i.e. the reliable delivery the
// paper assumes (Section 3.1, assumption (iii)) — even when the inner
// transport drops, duplicates or delays messages (FaultPlan,
// net/fault_plan.h). Per ordered host pair, every outgoing data message is
// stamped with a sequence number (Message::rel_seq) and kept in an
// in-flight slab entry until an ack for one of its copies settles it.
// Receivers ack every tracked message — including duplicates, whose ack
// may have been the thing that was lost — and suppress redelivery via a
// cumulative counter plus an out-of-order list, so protocol handlers are
// idempotent by construction. FIFO is *not* restored (a retransmitted
// message arrives after its successors); the protocols only assume
// reliable delivery, not ordering.
//
// Acks are settled, not delivered. When a tracked copy is delivered the
// receiver runs its ack through the inner transport's fault seam
// (SimTransport::settle: FaultPlan rules on RelAckMsg, one wire message)
// and hands the sender's entry a receipt: the ack's arrival time, or
// "lost". Same lane, that is a direct call; across lanes
// it is an AckReceipt mailed to the sender's lane and committed at the next
// barrier, which the epoch bound places before the ack could arrive
// (DESIGN.md §16). An entry whose ack beats its deadline is retired with no
// event. A tracked message is retransmitted at its deadline if and only if
// no copy's ack arrived strictly before it, with exponential backoff until
// a bounded retry budget is exhausted. The timer for a deadline is armed
// only once that deadline is certain to fire: every copy that could still
// be acked in time (arrival + the latency model's minimum < deadline) has
// reported, and no report beat it. Copies dropped at send, copies arriving
// too late, and lost or late acks therefore arm a timer; a clean delivery
// never does, and every timer event retransmits or gives up.
//
// Fault injection must be installed on the *inner* transport: this layer
// exists to heal those faults. A fault injector installed on the decorator
// itself runs before sequence numbering, so a decorator-level drop is "the
// app never sent it" — no retransmission.
//
// The clean-network fast path is allocation-free in steady state: in-flight
// records live in a recycled slab, per-pair state in flat open-addressed
// tables that stop growing once every pair has communicated, and the
// retransmission clock is a typed timer event.
//
// Host ids are the inner transport's: dense slots on a standalone
// SimTransport, global ids on a sharded lane. Per-endpoint storage here
// shares the inner transport's slot numbering (SimTransport::local_index),
// so one decorator per lane works unchanged under ShardedNet.
#pragma once

#include <bit>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <vector>

#include "net/sim_transport.h"
#include "net/transport.h"
#include "util/metric.h"
#include "sim/event_queue.h"

namespace hcube {

struct ReliabilityConfig {
  SimTime rto_ms = 500.0;        // initial per-message retransmission timeout
  double backoff = 2.0;          // RTO multiplier per retransmission
  std::uint32_t max_retries = 8; // retransmissions before giving up
};

// Canonical registry names for ReliabilityStats (obs/collect exports them).
HCUBE_METRIC(kMetricRelTrackedSent, "rel.tracked_sent");
HCUBE_METRIC(kMetricRelRetransmits, "rel.retransmits");
HCUBE_METRIC(kMetricRelDupSuppressed, "rel.dup_suppressed");
HCUBE_METRIC(kMetricRelAcksSent, "rel.acks_sent");
HCUBE_METRIC(kMetricRelGiveUps, "rel.give_ups");

struct ReliabilityStats {
  std::uint64_t tracked_sent = 0;    // data messages given a sequence number
  std::uint64_t retransmits = 0;     // copies re-sent after an RTO expiry
  std::uint64_t dup_suppressed = 0;  // deliveries suppressed as duplicates
  std::uint64_t acks_sent = 0;
  std::uint64_t give_ups = 0;        // messages abandoned, budget exhausted

  // Exports every counter under its canonical registry name.
  template <class Fn>
  void for_each_metric(Fn&& fn) const {
    fn(kMetricRelTrackedSent, tracked_sent);
    fn(kMetricRelRetransmits, retransmits);
    fn(kMetricRelDupSuppressed, dup_suppressed);
    fn(kMetricRelAcksSent, acks_sent);
    fn(kMetricRelGiveUps, give_ups);
  }
};

class ReliableTransport final : public Transport, private TimerSink {
 public:
  explicit ReliableTransport(SimTransport& inner, ReliabilityConfig cfg = {});

  HostId add_endpoint(Handler handler) override;
  // Registers `host` on the inner transport (SimTransport::add_endpoint_as)
  // and here, at the same slot.
  HostId add_endpoint_as(HostId host, Handler handler);
  std::uint32_t num_endpoints() const override {
    return static_cast<std::uint32_t>(handlers_.size());
  }

  bool send(HostId from, HostId to, Message msg) override;

  EventQueue& queue() override { return inner_.queue(); }

  // Decorator-level accounting: sent counts accepted data sends, delivered
  // counts fresh (non-duplicate) deliveries to handlers, dropped counts
  // drops by this layer's own fault seam. Transport-internal traffic (acks,
  // retransmissions) shows up only in the inner transport's counters and in
  // rstats().
  std::uint64_t messages_sent() const override {
    return stats_.tracked_sent;
  }
  std::uint64_t messages_delivered() const override { return delivered_; }
  std::uint64_t messages_dropped() const override { return dropped_; }

  const ReliabilityStats& rstats() const { return stats_; }
  // Data messages not yet settled by an ack or a give-up.
  std::uint64_t in_flight() const { return in_flight_; }

  // Applies the receipt for one delivered copy to the sender's entry, if
  // that is still in flight. A same-lane ack calls it directly; ShardedNet
  // calls it at the barrier for receipts mailed from other lanes.
  void on_receipt(const AckReceipt& r);

  // Capacity hint for the per-endpoint handler column — callers that know
  // the final population (ShardedNet sizes lanes from the latency model)
  // avoid growth-doubling slack, which is measurable at n = 10^6 in
  // bench_scale's bytes/node.
  void reserve_endpoints(std::size_t n) { handlers_.reserve(n); }

  // Slab introspection (tests assert steady-state reuse).
  std::size_t inflight_pool_size() const { return inflight_.size(); }
  std::size_t inflight_pool_free() const { return free_.size(); }

  // Called when a message exhausts its retry budget and is abandoned. The
  // protocols' own end-to-end recovery (the join-stall watchdog) is what
  // turns a give-up into progress; this hook is for tests and diagnostics.
  std::function<void(HostId from, HostId to, const Message& msg)> on_give_up;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  struct InFlight {
    Message msg;                 // retransmission copy
    std::uint32_t seq = 0;
    std::uint32_t next = kNone;  // next entry of the same pair
    std::uint32_t retries = 0;
    // Copies not yet settled whose ack could still beat the deadline.
    std::uint32_t hopeful = 0;
    SimTime rto = 0.0;           // current timeout (grows by backoff)
    SimTime deadline = 0.0;      // when the next retransmission is due
    SimTime ack_at = 0.0;        // earliest settled ack arrival, +inf: none
    // Arrival times of the unsettled copies that cannot beat the deadline,
    // ascending. Receipts for one entry come back in arrival order (one
    // receiver, one lane, FIFO), so each settles the earliest copy left.
    std::vector<SimTime> late;
  };
  struct SendPair {
    std::uint32_t next_seq = 0;
    std::uint32_t head = kNone;  // in-flight entries, newest first
  };
  struct RecvPair {
    std::uint32_t cum = 0;  // every seq <= cum was delivered
    std::uint32_t ooo = 0;  // 1 + index into ooo_ of the seqs delivered
                            // beyond cum + 1; 0 = none yet
  };

  // Open-addressed map keyed by pair_key, for pairs that are never erased.
  // Linear probing over one power-of-two slot array: a lookup is a hash and
  // usually one cache line, and no pair costs a heap node. Never iterated,
  // so its layout cannot leak into any digest.
  template <typename V>
  class PairTable {
   public:
    V* find(std::uint64_t key) {
      if (slots_.empty()) return nullptr;
      for (std::size_t i = home(key);; i = (i + 1) & mask_) {
        if (slots_[i].key == key) return &slots_[i].value;
        if (slots_[i].key == kEmptyKey) return nullptr;
      }
    }
    // The value for key, inserted as V{} on first use. Insertion may move
    // every value: hold no pointer across it.
    V& operator[](std::uint64_t key) {
      if (V* v = find(key)) return *v;
      if ((size_ + 1) * 4 > slots_.size() * 3) grow();
      ++size_;
      return place(key, V{});
    }

   private:
    static constexpr std::uint64_t kEmptyKey = ~0ULL;
    struct Slot {
      std::uint64_t key = kEmptyKey;
      V value;
    };
    std::size_t home(std::uint64_t key) const {
      return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                      shift_);
    }
    V& place(std::uint64_t key, V value) {
      std::size_t i = home(key);
      while (slots_[i].key != kEmptyKey) i = (i + 1) & mask_;
      slots_[i] = Slot{key, value};
      return slots_[i].value;
    }
    void grow() {
      std::vector<Slot> old;
      old.swap(slots_);
      slots_.resize(old.empty() ? 16 : old.size() * 2);
      mask_ = slots_.size() - 1;
      shift_ = 64 - static_cast<unsigned>(std::countr_zero(slots_.size()));
      for (const Slot& s : old)
        if (s.key != kEmptyKey) place(s.key, s.value);
    }
    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t mask_ = 0;
    unsigned shift_ = 64;
  };

  void on_timer(std::uint32_t from, std::uint32_t to,
                std::uint32_t slot) override;
  void on_deliver(HostId from, HostId self, const Message& msg);
  // Puts a copy of entry `slot` on the wire, then retires the entry, arms
  // its timer, or waits for the receipts that decide which.
  void transmit(HostId from, HostId to, std::uint32_t slot, Message msg);
  void arm(HostId from, HostId to, std::uint32_t slot);
  // Unlinks entry `slot` from its pair's list; the caller releases it.
  void unlink(HostId from, HostId to, std::uint32_t slot);
  bool note_fresh(RecvPair& p, std::uint32_t seq);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);

  // Storage slot of a host registered here.
  std::uint32_t lx(HostId h) const { return inner_.local_index(h); }

  // Lower bound on the trip of an ack from `to` back to `from`: the latency
  // model's bound between distinct hosts, nothing for a host's own.
  SimTime ack_floor(HostId from, HostId to) const {
    return from == to ? 0.0 : min_latency_ms_;
  }

  // Pair-state key: (local endpoint slot, remote global id). ONE table per
  // direction — not one per endpoint — so an endpoint pays only for the
  // pairs it talks to (DESIGN.md §16, memory at n = 10^6).
  static std::uint64_t pair_key(std::uint32_t local, HostId remote) {
    return (static_cast<std::uint64_t>(local) << 32) |
           static_cast<std::uint64_t>(remote);
  }

  SimTransport& inner_;
  ReliabilityConfig cfg_;
  SimTime min_latency_ms_;
  std::vector<Handler> handlers_;  // by lx
  PairTable<SendPair> send_;
  PairTable<RecvPair> recv_;
  std::vector<std::vector<std::uint32_t>> ooo_;  // by RecvPair::ooo - 1
  // In-flight slab: recycled slots, stable references while growing.
  std::deque<InFlight> inflight_;
  std::vector<std::uint32_t> free_;
  ReliabilityStats stats_;
  std::uint64_t in_flight_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace hcube
