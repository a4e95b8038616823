#include "core/world.h"

#include <utility>

namespace hcube {

World::World(const IdParams& params, const ProtocolOptions& options,
             std::unique_ptr<LatencyModel> latency,
             const ShardedNet::Params& net_params)
    : latency_(std::move(latency)),
      net(net_params, *latency_),
      overlay(params, options, net.transport()) {}

Node& World::schedule_join(const NodeId& id, const NodeId& gateway,
                           SimTime at) {
  Node& node = overlay.add_node(id);
  net.driver().schedule_action(at, [this, &node, gateway] {
    on_lane_of(node, [&] { node.start_join(gateway); });
  });
  return node;
}

std::uint64_t World::repair_all(SimTime ping_timeout_ms, std::uint32_t rounds) {
  const std::uint64_t before = overlay.sent_of(MessageType::kRepairQuery);
  for (std::uint32_t round = 0; round < rounds; ++round) {
    for (const auto& node : overlay.nodes())
      if (node->is_s_node())
        on_lane_of(*node, [&] { node->start_repair(ping_timeout_ms); });
    drain();
    for (const auto& node : overlay.nodes())
      if (node->is_s_node()) on_lane_of(*node, [&] { node->announce_table(); });
    drain();
  }
  return overlay.sent_of(MessageType::kRepairQuery) - before;
}

}  // namespace hcube
