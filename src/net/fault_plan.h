// Seeded, reproducible fault injection for transports.
//
// A FaultPlan decides, per message, whether the network drops it or
// duplicates it, drawing every decision from one seeded RNG so a run is
// exactly reproducible from (seed, workload). One Spec, fixed at
// construction, applies to every message. attach() installs the plan as a
// SimTransport's fault_injector (the wire's fault seam, net/transport.h)
// and binds that transport's event-queue clock; the transport then
// consults the plan on every send attempt and every settled ack. The wire
// is the only place a plan attaches: the decorators above it drop nothing,
// and "never sent" is the overlay's drop filter. A test that choreographs
// one fault (drop the first K copies of a type, cut off a host pair, delay
// one type) sets the transport's fault_injector itself instead.
//
// On top of the seeded rule the plan models network partitions as a
// first-class primitive: partition() cuts a set of hosts into groups for
// [t0, t1), and while the window is active every message between hosts of
// different groups is dropped (counted apart from the seeded drops — a
// partition is a property of the network, not a random loss). When the
// window ends the partition heals by itself; with a ReliableTransport
// layered on top, traffic buffered by the ARQ layer then flows across the
// former cut.
//
// With a ReliableTransport layered on the faulty transport, the protocols
// survive whatever a plan injects (up to the retry budget); used directly
// under a plain transport, a plan demonstrates what the paper's
// reliable-delivery assumption protects against. The counters record what
// was actually injected, so tests can assert the run was genuinely lossy.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/transport.h"
#include "util/rng.h"

namespace hcube {

class SimTransport;

class FaultPlan {
 public:
  // Fault probabilities applied to every message. Drop wins over duplicate.
  struct Spec {
    double drop = 0.0;       // P(message is lost)
    double duplicate = 0.0;  // P(message is delivered twice)
  };

  explicit FaultPlan(std::uint64_t seed) : rng_(seed) {}
  FaultPlan(std::uint64_t seed, const Spec& spec) : rng_(seed), spec_(spec) {}

  // Cuts the listed hosts into groups for simulated time [t0, t1): while
  // the window is active, a message whose endpoints sit in different groups
  // is dropped. The window is half-open, so back-to-back windows [a, b) +
  // [b, c) hand off at b with neither a gap nor an overlap. Hosts absent
  // from every group are unaffected. Windows may overlap; a message is
  // dropped if any active window separates its endpoints. The partition
  // heals itself when the window closes.
  void partition(const std::vector<std::vector<HostId>>& groups, SimTime t0,
                 SimTime t1);

  // True when some active window separates a and b right now.
  bool partitioned(HostId a, HostId b) const;

  // Installs the plan as the transport's fault_injector, replacing any
  // previous injector, and binds the transport's clock (partitions are
  // evaluated against it). The plan must outlive the transport's use of it.
  void attach(SimTransport& transport);

  // Clock for partition windows when the plan is driven directly rather
  // than via attach() (tests). Unset, windows see t = 0.
  void bind_clock(const EventQueue& queue) { clock_ = &queue; }

  // The decision for one send attempt from -> to: a partition drop, else
  // one draw for drop, else one draw for duplicate. A zero probability
  // draws nothing.
  FaultDecision decide(HostId from, HostId to);

  // What was actually injected.
  std::uint64_t drops_injected() const { return drops_; }
  std::uint64_t duplicates_injected() const { return duplicates_; }
  std::uint64_t partition_drops() const { return partition_drops_; }

 private:
  struct PartitionWindow {
    SimTime t0 = 0.0;
    SimTime t1 = 0.0;
    std::unordered_map<HostId, std::uint32_t> group;  // host -> group index
  };

  Rng rng_;
  Spec spec_;
  std::vector<PartitionWindow> partitions_;
  const EventQueue* clock_ = nullptr;
  std::uint64_t drops_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t partition_drops_ = 0;
};

}  // namespace hcube
