// Shared fixtures/helpers for the hcube test suite.
#pragma once

#include <memory>
#include <vector>

#include "core/builder.h"
#include "core/consistency.h"
#include "core/overlay.h"
#include "core/routing.h"
#include "core/world.h"
#include "ids/node_id.h"
#include "topology/latency.h"
#include "util/rng.h"

namespace hcube::testing {

// A one-lane World over heterogeneous synthetic latencies (5-120 ms).
// max_hosts bounds how many nodes may ever be added; `rel` configures the
// ARQ layer faults attached to net.lane_transport(0) are healed by.
struct World : hcube::World {
  explicit World(const IdParams& params, std::uint32_t max_hosts,
                 const ProtocolOptions& options = {},
                 std::uint64_t latency_seed = 42,
                 const ReliabilityConfig& rel = {})
      : hcube::World(params, options,
                     std::make_unique<SyntheticLatency>(max_hosts, 5.0, 120.0,
                                                        latency_seed),
                     ShardedNet::Params{1, rel}) {}
};

inline std::vector<NodeId> make_ids(const IdParams& params, std::size_t n,
                                    std::uint64_t seed) {
  UniqueIdGenerator gen(params, seed);
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(gen.next());
  return ids;
}

inline NodeId id_of(const std::string& text, const IdParams& params) {
  auto id = NodeId::from_string(text, params);
  HCUBE_CHECK_MSG(id.has_value(), "bad literal node ID in test");
  return *id;
}

// Full audit: Definition 3.8 (a) + (b) plus stale-state detection (at
// quiescence every neighbor must be known to be an S-node).
inline ConsistencyReport audit(const Overlay& overlay) {
  ConsistencyCheckOptions options;
  options.check_states = true;
  return check_consistency(view_of(overlay), options);
}

}  // namespace hcube::testing
