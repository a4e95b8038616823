// A simulated world: a latency model, a ShardedNet of Params::lanes lanes
// (one by default; net/sharded_net.h) and an Overlay bound to the net's
// transport. It is the one place simulated time is driven: the chaos
// engine, tests, benches, hcube-sim and the examples all join, drain and
// repair through it, so they run the same driving code at every lane count
// K. Calls made outside an event run as driver actions or in the owning
// node's lane scope, and every drain (the driver's) leaves each lane
// clock where one queue's clock would sit, which keeps a run independent
// of K (DESIGN.md §16).
#pragma once

#include <cstdint>
#include <memory>

#include "core/overlay.h"
#include "net/sharded_net.h"
#include "sim/shard_context.h"
#include "topology/latency.h"

namespace hcube {

class World {
 public:
  World(const IdParams& params, const ProtocolOptions& options,
        std::unique_ptr<LatencyModel> latency,
        const ShardedNet::Params& net_params = {});

  LatencyModel& latency() { return *latency_; }

  // Lane 0's clock: the action instant inside a driver action, the last
  // event's time after drain().
  SimTime now() { return net.lane_queue(0).now(); }

  // Runs the driver dry; every lane clock then reads the last event's time
  // (ShardDriver::drain).
  void drain() { net.driver().drain(); }

  // Runs fn as protocol code of `node`, on the lane its host lives on.
  template <typename Fn>
  void on_lane_of(const Node& node, Fn&& fn) {
    const std::uint32_t lane = net.lane_of_host(overlay.host_of(node.id()));
    LaneScope scope(&net.lane_queue(lane), lane);
    fn();
  }

  // Adds the node now and starts its join via `gateway` at simulated time
  // `at`, as one driver action.
  Node& schedule_join(const NodeId& id, const NodeId& gateway, SimTime at);

  // The recovery protocol, `rounds` times (clustered failures can need
  // more than one): every S-node probes its neighbors and repairs entries
  // pointing at dead ones; once that drained, every S-node re-announces its
  // table, so no announcement can resurrect a vacated pointer. A
  // non-positive ping_timeout_ms means kRepairPingTimeoutMs. Returns the
  // repair queries issued (0 = nothing dead was detected).
  std::uint64_t repair_all(SimTime ping_timeout_ms = 0.0,
                           std::uint32_t rounds = 2);

 private:
  std::unique_ptr<LatencyModel> latency_;  // net and overlay refer to it

 public:
  ShardedNet net;
  Overlay overlay;
};

}  // namespace hcube
