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
// Settled messages. settle() runs a message through the same fault seam
// and send counters but schedules no delivery: it returns the arrival time
// (none when the seam drops it) and the caller applies the effect itself.
// ReliableTransport settles every ack this way, at the instant its data
// message is delivered, so an ack is a wire message (fault rules,
// messages_sent()) but never an event; messages_delivered() counts
// delivery events only.
//
// Lanes. A standalone transport (the lane of a one-lane ShardedNet, tests,
// benches) stores host h at slot h and owns every destination. On a
// ShardedNet of several lanes each lane runs one SimTransport on its own
// queue over the net's shared LaneRoutes: hosts keep their global ids,
// live at routes.local_of[h], and a send to a host on another lane appends
// a RemoteDelivery to the outbox toward that lane instead of touching the
// foreign queue. The driver hands it to the destination lane's
// commit_remote() at the next epoch barrier; the delivery time was fixed
// at send time, and the epoch is no longer than the minimum latency, so
// the late commit never delays or reorders it (sim/shard_driver.h,
// DESIGN.md §16). A settled ack whose data sender lives on another lane
// travels the same way, as an AckReceipt in the same outbox
// (mail_receipt), committed at the same barrier — before the ack would
// have arrived, for the same epoch reason.
#pragma once

#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "net/transport.h"
#include "topology/latency.h"

namespace hcube {

// A cross-lane delivery parked in an outbox until the next barrier.
struct RemoteDelivery {
  SimTime deliver_at = 0.0;
  HostId from = kNoHost;
  HostId to = kNoHost;
  Message msg;
};

// An ack settled at its data message's delivery, addressed to the data
// sender's reliable layer (net/reliable_transport.h).
struct AckReceipt {
  HostId from = kNoHost;  // the ack's sender: the data message's receiver
  HostId to = kNoHost;    // the data message's sender
  std::uint32_t seq = 0;  // the acked Message::rel_seq
  SimTime ack_at = std::numeric_limits<SimTime>::infinity();  // +inf: lost
};

// Traffic from one lane to another awaiting the next barrier, in append
// order. Only the source lane appends, inside an epoch (or the driver
// thread while every worker is parked); only the driver drains, at the
// barrier. The barrier's handshake orders the two, so nothing here is
// atomic. One cache line each, so no two lanes write the same line.
struct alignas(64) Outbox {
  std::vector<RemoteDelivery> mail;
  std::vector<AckReceipt> receipts;  // acks for data senders on the dst lane
};

// Routing shared by the lanes of one sharded net, owned by the net. The
// host columns are written only at registration, with workers parked.
struct LaneRoutes {
  std::vector<std::uint32_t> lane_of;   // global host -> lane
  std::vector<std::uint32_t> local_of;  // global host -> slot in its lane
  // out[src][dst]: traffic from lane src to lane dst; the diagonal is
  // unused.
  std::vector<std::vector<Outbox>> out;
};

class SimTransport final : public Transport, private DeliverySink {
 public:
  // Standalone: hosts are the latency model's dense indices, every one of
  // them on this queue.
  SimTransport(EventQueue& queue, LatencyModel& latency);
  // Lane `lane` of a sharded net whose routing is `routes`.
  SimTransport(EventQueue& queue, LatencyModel& latency, LaneRoutes& routes,
               std::uint32_t lane);

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

  // What one send put on the wire: `copies` in-flight copies (0 = the
  // fault seam dropped it, 2 = it duplicated it), all arriving at `at`.
  struct Dispatch {
    SimTime at = std::numeric_limits<SimTime>::infinity();
    std::uint32_t copies = 0;
  };

  bool send(HostId from, HostId to, Message msg) override {
    return transmit(from, to, std::move(msg)).copies != 0;
  }
  // send(), reporting what went on the wire.
  Dispatch transmit(HostId from, HostId to, Message msg);
  // The fault seam and send counters of send(), with no delivery: reports
  // what msg would put on the wire.
  Dispatch settle(HostId from, HostId to, const Message& msg);
  // Parks r in the outbox toward r.to's lane and returns true when r.to
  // lives on another lane; returns false (nothing parked) when this
  // transport owns r.to, and the caller applies r itself.
  bool mail_receipt(const AckReceipt& r);
  // Lower bound on latency_ms(a, b) over a != b (LatencyModel).
  double min_latency_ms() const { return latency_.min_latency_ms(); }

  EventQueue& queue() override { return queue_; }

  std::uint64_t messages_sent() const override { return messages_sent_; }
  std::uint64_t messages_delivered() const override {
    return messages_delivered_;
  }
  std::uint64_t messages_dropped() const override {
    return messages_dropped_;
  }

  // Barrier phase: schedules an outbox entry addressed to this lane.
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
  LaneRoutes* routes_ = nullptr;  // null = standalone
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
