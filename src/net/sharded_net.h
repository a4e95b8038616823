// Sharded network stack: per-lane transports + reliable decorators behind
// one Transport facade, with cross-shard deliveries parked in per-pair
// outboxes and committed at the epoch barrier.
//
// Host ids stay GLOBAL everywhere in the API — the reliable layer's acks
// must address the remote's global id no matter which lane it lives on.
// Each lane stores its own endpoints in dense *local* slots, found via the
// net-owned LaneRoutes (net/sim_transport.h).
//
// Topology (K > 1 lanes, hosts hash-assigned by shard_of):
//
//   Overlay -> ShardedTransport (facade: decorator-level seam, routing)
//            -> ReliableTransport[lane(from)]   (acks/retransmit, lane state)
//             -> SimTransport[lane(from)]       (latency, faults, slab)
//                 |-- same-lane dest: schedule on the lane's own EventQueue
//                 '-- cross-lane dest: append RemoteDelivery{deliver_at,
//                     ...} to out[lane(from)][lane(to)]; the driver
//                     commits it into lane(to)'s queue at the next barrier.
//
// Acks take no event on either path: the receiver's lane settles each one
// at its data's delivery and hands the sender's ReliableTransport an
// AckReceipt — directly on the same lane, through out[lane(to)][lane(from)]
// across lanes, committed at the same barrier as the deliveries.
//
// One lane (K = 1) is the plain stack: a standalone SimTransport that owns
// every host, its ReliableTransport, and one EventQueue — no routes,
// outboxes or facade. transport() is then the lane's
// ReliableTransport, hosts register densely through it, and the driver
// runs its queue straight to each action (sim/shard_driver.h).
//
// Every lane transport is a SimTransport, so a fault plan attached to a
// lane behaves exactly as one attached to a standalone transport.
// Correctness of the deferred commit rests on the epoch invariant: epoch
// length <= the latency model's min cross-shard latency, so deliver_at =
// send_time + latency is never earlier than the barrier that commits it
// (sim/shard_driver.h).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/reliable_transport.h"
#include "net/sim_transport.h"
#include "net/transport.h"
#include "sim/shard_driver.h"
#include "topology/latency.h"

namespace hcube {

class ShardedNet;

// The Transport the Overlay sees on more than one lane. Registration
// assigns global ids and lane homes; send routes to the owning lane's
// reliable decorator. Its own fault seam runs above those decorators, so
// a drop there is "never sent", exactly as on a ReliableTransport.
class ShardedTransport final : public Transport {
 public:
  explicit ShardedTransport(ShardedNet& net) : net_(net) {}

  HostId add_endpoint(Handler handler) override;
  std::uint32_t num_endpoints() const override;

  bool send(HostId from, HostId to, Message msg) override;

  // The queue of the lane the calling thread is executing for. Only valid
  // inside a LaneScope (worker epoch or driver action); protocol code
  // reaches its own lane's clock and timers through this.
  EventQueue& queue() override;

  std::uint64_t messages_sent() const override;
  std::uint64_t messages_delivered() const override;
  std::uint64_t messages_dropped() const override;

 private:
  ShardedNet& net_;
  std::uint64_t dropped_here_ = 0;
};

// Owns the lanes (queue, transport and reliable decorator each), the
// routes and outboxes, the epoch driver and the facade. Every World
// (core/world.h) and perfbench build on this.
class ShardedNet {
 public:
  struct Params {
    std::uint32_t lanes = 1;
    ReliabilityConfig rel;
  };

  ShardedNet(const Params& params, LatencyModel& latency);

  // What the Overlay runs over: the lane's ReliableTransport on one lane,
  // the facade on more.
  Transport& transport() {
    if (num_lanes() == 1) return lanes_[0]->rel;
    return facade_;
  }
  ShardDriver& driver() { return *driver_; }

  std::uint32_t num_lanes() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  // Epoch length: the latency model's minimum latency, the longest epoch
  // the barrier invariant allows (sim/shard_driver.h); unread on one lane.
  double epoch_ms() const { return epoch_ms_; }

  // Lane assignment of a (future) global host id: a seeded hash, so lane
  // populations stay balanced for any join order.
  std::uint32_t shard_of(HostId h) const;
  // Lane of an already-registered endpoint.
  std::uint32_t lane_of_host(HostId h) const {
    return num_lanes() == 1 ? 0 : routes_.lane_of[h];
  }

  EventQueue& lane_queue(std::uint32_t lane) { return lanes_[lane]->queue; }
  SimTransport& lane_transport(std::uint32_t lane) {
    return lanes_[lane]->transport;
  }

  // Drains every outbox in canonical order — for each destination lane
  // (ascending), sources ascending, deliveries before receipts, FIFO within
  // each — scheduling deliveries into the destination queues and applying
  // receipts to the destination's reliable layer, then empties it (keeping
  // its capacity). The driver's commit callback; runs on the driver thread
  // with all workers parked.
  void commit_mailboxes();

  // Aggregates over lanes (deterministic: each addend is deterministic).
  ReliabilityStats rel_stats() const;
  std::uint64_t rel_in_flight() const;
  // Deliveries and ack receipts committed between lanes.
  std::uint64_t cross_shard_messages() const { return cross_shard_; }

 private:
  friend class ShardedTransport;

  // One lane's stack. `routes` null: the standalone transport of a
  // one-lane net.
  struct Lane {
    Lane(LatencyModel& latency, LaneRoutes* routes, std::uint32_t index,
         const ReliabilityConfig& rel_cfg);
    EventQueue queue;
    SimTransport transport;
    ReliableTransport rel;
  };

  HostId register_endpoint(Transport::Handler handler);

  std::uint64_t salt_;
  double epoch_ms_;
  LaneRoutes routes_;  // empty on one lane
  std::uint64_t cross_shard_ = 0;
  std::vector<std::unique_ptr<Lane>> lanes_;
  ShardedTransport facade_;
  std::unique_ptr<ShardDriver> driver_;
};

}  // namespace hcube
