// The in-process message transport: every message of every stack moves
// through this class.
//
// send() runs the fault seam (Transport::admit), fixes the delivery time at
// now + latency(from, to) + injected extra delay, parks the Message in a
// recycled slab slot and schedules a typed {sink, from, to, slot} delivery
// event — no closure, no per-message heap traffic. Once the slab and the
// queue's heap have grown to the workload's high-water mark, a steady-state
// send+delivery does zero allocations (payloads that carry table snapshots
// still own their vectors, but that memory belongs to the protocol layer).
// Latency per ordered pair is constant within a run and ties break by send
// order, so per-pair delivery is FIFO on a clean network. Zero-latency
// loopback delivery is just ConstantLatency(n, 0.0): still asynchronous,
// through the queue, at the send instant.
//
// Lanes. A standalone transport (the sequential stack, tests, benches)
// stores host h at slot h and owns every destination. Under ShardedNet
// each lane runs one SimTransport on its own queue over the net's shared
// LaneRoutes: hosts keep their global ids, live at routes.local_of[h], and
// a send to a host on another lane parks a RemoteDelivery in that lane's
// mailbox instead of touching the foreign queue. The driver hands it to
// the destination lane's commit_remote() at the next epoch barrier; the
// delivery time was fixed at send time, and the epoch is no longer than
// the minimum latency, so the late commit never delays or reorders it
// (sim/shard_driver.h, DESIGN.md §16).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "net/transport.h"
#include "sim/mailbox.h"
#include "topology/latency.h"

namespace hcube {

// A cross-lane delivery parked in a mailbox until the next barrier.
struct RemoteDelivery {
  SimTime deliver_at = 0.0;
  HostId from = kNoHost;
  HostId to = kNoHost;
  Message msg;
};

// Routing shared by the lanes of one sharded net: owned by the net, read by
// every lane transport (written only at registration, with workers parked).
struct LaneRoutes {
  std::vector<std::uint32_t> lane_of;   // global host -> lane
  std::vector<std::uint32_t> local_of;  // global host -> slot in its lane
  // mail[src][dst]: deliveries from lane src to lane dst awaiting the next
  // barrier; the diagonal is unused.
  std::vector<std::vector<std::unique_ptr<SpscMailbox<RemoteDelivery>>>> mail;
};

class SimTransport final : public Transport, private DeliverySink {
 public:
  // Standalone: hosts are the latency model's dense indices, every one of
  // them on this queue.
  SimTransport(EventQueue& queue, LatencyModel& latency);
  // Lane `lane` of a sharded net whose routing is `routes`.
  SimTransport(EventQueue& queue, LatencyModel& latency,
               const LaneRoutes& routes, std::uint32_t lane);

  // Standalone only: registers the next dense host.
  HostId add_endpoint(Handler handler) override;
  // Registers `host` at its slot, which must be the next free one:
  // standalone, host == num_endpoints(); on a lane, the slot the net
  // assigned in routes.local_of.
  HostId add_endpoint_as(HostId host, Handler handler);
  std::uint32_t num_endpoints() const override {
    return static_cast<std::uint32_t>(handlers_.size());
  }
  // Slot of a registered host in this transport's endpoint columns.
  std::uint32_t local_index(HostId h) const {
    return routes_ != nullptr ? routes_->local_of[h] : h;
  }
  // Capacity hint for the handler column (a lane's expected population).
  void reserve_endpoints(std::size_t n) { handlers_.reserve(n); }

  bool send(HostId from, HostId to, Message msg) override;

  EventQueue& queue() override { return queue_; }

  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t messages_delivered() const override {
    return messages_delivered_;
  }
  std::uint64_t messages_dropped() const override {
    return messages_dropped_;
  }

  // Barrier phase: schedules a mailbox entry addressed to this lane.
  void commit_remote(RemoteDelivery r);

  // Slab introspection (tests and benches assert steady-state reuse).
  std::size_t payload_pool_size() const { return slots_.size(); }
  std::size_t payload_pool_free() const { return free_slots_.size(); }

 private:
  void deliver(HostId from, HostId to, std::uint32_t payload_slot) override;
  // Schedules one copy locally, or mails it to the destination's lane.
  void dispatch(HostId from, HostId to, SimTime deliver_at, Message msg);
  // Parks the message in a recycled slab slot; returns the slot.
  std::uint32_t park(Message msg);

  EventQueue& queue_;
  LatencyModel& latency_;
  const LaneRoutes* routes_ = nullptr;  // null = standalone
  std::uint32_t lane_ = 0;
  std::vector<Handler> handlers_;  // by local_index
  // Deque, not vector: growing the slab mid-delivery (a handler that sends)
  // must not invalidate the reference the in-flight delivery handed out.
  std::deque<Message> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_delivered_ = 0;
  std::uint64_t messages_dropped_ = 0;
};

}  // namespace hcube
