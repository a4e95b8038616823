// Network initialization (Section 6.1) at scale, over a realistic underlay.
//
// Starts from a single seed node and grows the overlay to 800 members using
// only the join protocol, with end hosts attached to a generated
// transit-stub router topology (the paper's GT-ITM setup, built from
// scratch in src/topology). Half the nodes join in sequential batches, the
// rest in one concurrent burst — then the whole network is audited against
// Definition 3.8 and all-pairs-sampled reachability (Lemma 3.1).
//
// Build & run:  ./build/examples/bootstrap_network
#include <cstdio>

#include "core/builder.h"
#include "core/consistency.h"
#include "core/routing.h"
#include "topology/latency.h"
#include "util/stats.h"

using namespace hcube;

int main() {
  const IdParams params{16, 8};
  constexpr std::uint32_t kTotal = 800;

  // A transit-stub underlay: 4 transit domains x 8 transit routers, 4 stub
  // domains of 16 routers each per transit router = 2080 routers.
  Rng topo_rng(2080);
  TransitStubParams ts;
  World world(params, ProtocolOptions{},
              make_transit_stub_latency(ts, kTotal, topo_rng));
  Overlay& overlay = world.overlay;
  std::printf("underlay: %u-router transit-stub topology, %u end hosts\n",
              ts.total_routers(), kTotal);

  UniqueIdGenerator gen(params, 60);
  std::vector<NodeId> ids;
  for (std::uint32_t i = 0; i < kTotal; ++i) ids.push_back(gen.next());

  // Seed.
  overlay.add_node(ids[0]).become_seed();
  std::vector<NodeId> members{ids[0]};
  Rng rng(61);

  // Phase 1: sequential growth to 400 members.
  std::vector<NodeId> phase1(ids.begin() + 1, ids.begin() + 400);
  join_sequentially(world, phase1, members, rng);
  members.insert(members.end(), phase1.begin(), phase1.end());
  std::printf("phase 1: %zu members after sequential joins (sim time %.0f"
              " ms)\n",
              overlay.size(), world.now());

  // Phase 2: 400 more join in one concurrent burst.
  const std::vector<NodeId> phase2(ids.begin() + 400, ids.end());
  const double burst_start = world.now();
  join_concurrently(world, phase2, members, rng, /*window_ms=*/0.0);
  std::printf("phase 2: +%zu concurrent joiners, burst settled in %.0f ms"
              " of simulated time\n",
              phase2.size(), world.now() - burst_start);

  // Join-cost digest for the burst.
  StreamingStats noti, duration;
  for (const NodeId& x : phase2) {
    const JoinStats& s = overlay.at(x).join_stats();
    noti.add(static_cast<double>(s.sent_of(MessageType::kJoinNoti)));
    duration.add(s.t_end - s.t_begin);
  }
  std::printf("burst join cost: JoinNotiMsg/joiner mean %.2f max %.0f;"
              " join latency mean %.0f ms max %.0f ms\n",
              noti.mean(), noti.max(), duration.mean(), duration.max());

  // Full audit.
  const auto report = check_consistency(view_of(overlay));
  Rng sample(1);
  const auto unreachable =
      check_reachability_sample(view_of(overlay), 20000, sample);
  std::printf("audit: %llu entries checked -> %s; 20000 sampled routes ->"
              " %llu failures\n",
              static_cast<unsigned long long>(report.entries_checked),
              report.consistent() ? "CONSISTENT" : "INCONSISTENT",
              static_cast<unsigned long long>(unreachable));
  std::printf("all %zu nodes in system: %s\n", overlay.size(),
              overlay.all_in_system() ? "yes" : "no");
  return report.consistent() && unreachable == 0 ? 0 : 1;
}
