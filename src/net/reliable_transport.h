// Reliable-delivery decorator: acks, retransmission, dedup.
//
// Wraps a SimTransport and gives the layers above at-least-once delivery
// with receiver-side duplicate suppression — i.e. the reliable delivery the
// paper assumes (Section 3.1, assumption (iii)) — even when the inner
// transport drops, duplicates or delays messages (FaultPlan,
// net/fault_plan.h). Per ordered host pair, every outgoing data message is
// stamped with a sequence number (Message::rel_seq) and kept in an
// in-flight slab until the receiver's RelAckMsg arrives; a per-pair
// retransmission timer (one typed TimerSink timer per pair, not per
// message) rescans the pair's unacked window when it fires, retransmitting
// expired entries with exponential backoff until a bounded retry budget is
// exhausted. Receivers ack every tracked message — including duplicates,
// whose ack may have been the thing that was lost — and suppress redelivery
// via a cumulative counter plus an out-of-order set, so protocol handlers
// are idempotent by construction. FIFO is *not* restored (a retransmitted
// message arrives after its successors); the protocols only assume
// reliable delivery, not ordering.
//
// Fault injection must be installed on the *inner* transport: this layer
// exists to heal those faults. Hooks installed on the decorator itself
// fire before sequence numbering, so a decorator-level drop is "the app
// never sent it" — no retransmission.
//
// The clean-network fast path is allocation-free in steady state: in-flight
// records live in a recycled slab, per-pair state in maps that stop
// growing once every pair has communicated, and the retransmission clock
// is a typed pooled timer event. With no faults injected, no retransmission
// and no duplicate suppression ever happens (the initial RTO exceeds the
// in-process transport's max round trip).
//
// Host ids are the inner transport's: dense slots on a standalone
// SimTransport, global ids on a sharded lane. Per-endpoint storage here
// shares the inner transport's slot numbering (SimTransport::local_index),
// so one decorator per lane works unchanged under ShardedNet.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
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
  // rejections by this layer's own hooks. Transport-internal traffic (acks,
  // retransmissions) shows up only in the inner transport's counters and in
  // rstats().
  std::uint64_t messages_sent() const override { return sent_; }
  std::uint64_t messages_delivered() const override { return delivered_; }
  std::uint64_t messages_dropped() const override { return dropped_; }

  const ReliabilityStats& rstats() const { return stats_; }
  // Data messages currently awaiting an ack.
  std::uint64_t in_flight() const { return in_flight_; }

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
  struct InFlight {
    Message msg;              // retransmission copy
    std::uint32_t seq = 0;
    std::uint32_t retries = 0;
    SimTime rto = 0.0;        // current timeout (grows by backoff)
    SimTime deadline = 0.0;   // when the next retransmission is due
  };
  struct SendPair {
    std::uint32_t next_seq = 0;
    std::vector<std::uint32_t> window;  // inflight_ slots, unordered
    bool timer_armed = false;
  };
  struct RecvPair {
    std::uint32_t cum = 0;            // every seq <= cum was delivered
    std::vector<std::uint32_t> ooo;   // delivered seqs beyond cum + 1
  };

  void on_timer(std::uint32_t from, std::uint32_t to, std::uint32_t) override;
  void on_deliver(HostId from, HostId self, const Message& msg);
  void on_ack(HostId self, HostId from, std::uint32_t seq);
  bool note_fresh(RecvPair& p, std::uint32_t seq);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t slot);
  void arm_timer(HostId from, HostId to, SendPair& p, SimTime deadline);

  // Storage slot of a host registered here.
  std::uint32_t lx(HostId h) const { return inner_.local_index(h); }

  // Pair-state key: (local endpoint slot, remote global id). Keeping ONE
  // flat map per direction — not a map per endpoint — matters at scale: an
  // empty unordered_map object is ~56 bytes, so a vector of them charges
  // every registered endpoint for pairs it never talks to (~112 bytes/node
  // at n = 10^6, most of it dead). Entries still appear only on first
  // contact of a pair, and the maps are never iterated — all access is
  // keyed lookup — so their unordered layout cannot leak into any digest.
  static std::uint64_t pair_key(std::uint32_t local, HostId remote) {
    return (static_cast<std::uint64_t>(local) << 32) |
           static_cast<std::uint64_t>(remote);
  }

  SimTransport& inner_;
  ReliabilityConfig cfg_;
  std::vector<Handler> handlers_;  // by lx
  std::unordered_map<std::uint64_t, SendPair> send_;
  std::unordered_map<std::uint64_t, RecvPair> recv_;
  // In-flight slab: recycled slots, stable references while growing.
  std::deque<InFlight> inflight_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> giveup_scratch_;
  ReliabilityStats stats_;
  std::uint64_t in_flight_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace hcube
