// Transport seam between the overlay and whatever moves its messages.
//
// Overlay (and through it every node) depends only on this interface:
// register an endpoint with a delivery handler, send a Message from one
// endpoint to another. The implementations:
//   - SimTransport (net/sim_transport.h): the one in-process message mover,
//     with per-pair latencies from a LatencyModel (ConstantLatency(n, 0.0)
//     gives zero-latency loopback delivery). A ShardedNet
//     (net/sharded_net.h) runs one per lane; with one lane the Overlay
//     talks to that lane's ReliableTransport directly, with more through
//     the ShardedTransport facade.
//   - ReliableTransport (net/reliable_transport.h): a decorator adding
//     acks, retransmission and dedup on top of a SimTransport, so the
//     protocols get the reliable delivery they assume even when the inner
//     transport is lossy (FaultPlan, net/fault_plan.h). Its acks pass the
//     inner transport's fault seam like any message but are settled when
//     their data is delivered, so on a clean network one message costs one
//     event.
// The in-process transport guarantees per-pair FIFO delivery on a clean
// network (delivery time is constant per ordered pair within a run and ties
// break by send order); under injected faults only ReliableTransport's
// at-least-once-then-dedup guarantee holds, and ordering may be disturbed —
// which is all the paper assumes (reliable delivery, not FIFO).
//
// Every transport carries one hook, its fault seam: fault_injector, which a
// seeded FaultPlan installs (net/fault_plan.h) and tests set by hand to lose
// chosen messages. An implementation calls admit() at the top of its send
// path — including SimTransport::settle, the path of an ack that is never
// delivered as an event. Observation belongs to the layer above: the
// Overlay counts every protocol send and fires its on_message hook, and
// applies its own drop filter before a message reaches any transport.
#pragma once

#include <cstdint>
#include <functional>

#include "proto/messages.h"
#include "sim/event_queue.h"

namespace hcube {

enum class FaultAction : std::uint8_t {
  kDeliver,    // deliver normally (possibly with extra delay)
  kDrop,       // silently lose the message
  kDuplicate,  // deliver twice (the copy also gets the extra delay)
};

struct FaultDecision {
  FaultAction action = FaultAction::kDeliver;
  double extra_delay_ms = 0.0;  // added on top of the modelled latency
};

class Transport {
 public:
  using Handler = std::function<void(HostId from, const Message& msg)>;

  virtual ~Transport() = default;

  // Registers an endpoint; returns its host id (a dense index). Endpoints
  // must be registered before any send to them.
  virtual HostId add_endpoint(Handler handler) = 0;
  virtual std::uint32_t num_endpoints() const = 0;

  // Sends msg from -> to. Returns false if the fault injector dropped it.
  virtual bool send(HostId from, HostId to, Message msg) = 0;

  virtual EventQueue& queue() = 0;

  virtual std::uint64_t messages_sent() const = 0;
  virtual std::uint64_t messages_delivered() const = 0;
  virtual std::uint64_t messages_dropped() const = 0;

  // Failure injection: decides drop/duplicate/extra-delay per message.
  // Installed by FaultPlan::attach, or set directly by a test.
  std::function<FaultDecision(HostId from, HostId to, const Message& msg)>
      fault_injector;

 protected:
  // The send-path preamble every implementation shares: asks the fault
  // injector — if one is installed — what to do with the message.
  FaultDecision admit(HostId from, HostId to, const Message& msg) const {
    if (fault_injector) return fault_injector(from, to, msg);
    return {};
  }
};

}  // namespace hcube
