// Quickstart: the smallest end-to-end tour of the library.
//
//   1. Create a simulated world (latency model, execution stack, overlay).
//   2. Bootstrap a consistent overlay of 24 nodes through the join protocol
//      itself (Section 6.1 of the paper: one seed, everyone else joins).
//   3. Join one more node while we watch its message footprint.
//   4. Route messages by suffix matching and audit consistency.
//
// Build & run:  ./build/examples/quickstart
#include <array>
#include <cstdio>

#include "core/builder.h"
#include "core/consistency.h"
#include "core/routing.h"
#include "topology/latency.h"

using namespace hcube;

int main() {
  // b = 4, d = 5: the ID shape of the paper's running example (Figure 1).
  const IdParams params{4, 5};

  World world(params, ProtocolOptions{},
              std::make_unique<SyntheticLatency>(/*num_hosts=*/32, 5.0, 120.0,
                                                 /*seed=*/7));
  Overlay& overlay = world.overlay;

  // --- 1+2: grow a network from a single seed via the join protocol ---
  UniqueIdGenerator gen(params, 2003);
  std::vector<NodeId> ids;
  for (int i = 0; i < 24; ++i) ids.push_back(gen.next());
  Rng rng(1);
  initialize_network(world, ids, rng, /*concurrent=*/false);
  std::printf("bootstrapped %zu nodes; all in system: %s\n", overlay.size(),
              overlay.all_in_system() ? "yes" : "no");

  // --- 3: one more node joins; look at what it cost ---
  const NodeId newcomer = gen.next();
  std::printf("\nnode %s joins via gateway %s ...\n",
              newcomer.to_string(params).c_str(),
              ids[0].to_string(params).c_str());
  // The overlay reports every message sent; count the newcomer's by type.
  std::array<std::uint64_t, kNumMessageTypes> sent{};
  overlay.on_message = [&](const NodeId& from, const NodeId&,
                           const MessageBody& body) {
    if (from == newcomer) ++sent[static_cast<std::size_t>(type_of(body))];
  };
  world.schedule_join(newcomer, ids[0], world.now());
  world.drain();

  const JoinStats& stats = overlay.at(newcomer).join_stats();
  std::printf("  joined in %.1f simulated ms\n", stats.t_end - stats.t_begin);
  std::printf("  notification level: %u\n", stats.noti_level);
  for (std::size_t t = 0; t < kNumMessageTypes; ++t) {
    if (sent[t] == 0) continue;
    std::printf("  sent %-16s x%llu\n",
                type_name(static_cast<MessageType>(t)),
                static_cast<unsigned long long>(sent[t]));
  }

  // Its neighbor table, in the style of the paper's Figure 1.
  std::printf("\n%s", overlay.at(newcomer).table().to_string().c_str());

  // --- 4: suffix routing ---
  const NetworkView net = view_of(overlay);
  const auto hop_path = route(net, ids[3], newcomer);
  std::printf("\nroute %s -> %s (%zu hops):",
              ids[3].to_string(params).c_str(),
              newcomer.to_string(params).c_str(), hop_path.hops());
  for (const NodeId& hop : hop_path.path)
    std::printf(" %s", hop.to_string(params).c_str());
  std::printf("\n");

  // --- audit: Definition 3.8 over every table ---
  const auto report = check_consistency(net);
  std::printf("\nconsistency audit: %llu entries checked, %s\n",
              static_cast<unsigned long long>(report.entries_checked),
              report.consistent() ? "CONSISTENT" : "INCONSISTENT");
  return report.consistent() ? 0 : 1;
}
