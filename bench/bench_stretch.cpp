// Experiment E10 (extension) — routing stretch before/after neighbor-table
// optimization (the paper's problem 3, property P2 of Section 1).
//
// Stretch of a route = (sum of per-hop underlay latencies along the overlay
// path) / (direct underlay latency between the endpoints). The join
// protocol guarantees consistency but picks arbitrary class members, so
// stretch starts high; the nearest-neighbor post-pass (core/optimize.h)
// should cut it substantially while leaving the network consistent.
#include <cstdio>

#include "core/optimize.h"
#include "core/routing.h"
#include "bench_common.h"

namespace {

using namespace hcube;

struct StretchStats {
  StreamingStats stretch;
  StreamingStats path_ms;
};

StretchStats measure(Overlay& overlay, LatencyModel& latency,
                     std::uint64_t pairs, std::uint64_t seed) {
  const NetworkView net = view_of(overlay);
  std::vector<NodeId> ids;
  for (const auto& node : overlay.nodes())
    if (!node->has_departed()) ids.push_back(node->id());
  Rng rng(seed);
  StretchStats stats;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const NodeId& a = ids[rng.next_below(ids.size())];
    const NodeId& b = ids[rng.next_below(ids.size())];
    if (a == b) continue;
    const auto r = route(net, a, b);
    HCUBE_CHECK_MSG(r.success, "route failed on a consistent network");
    double path_ms = 0.0;
    for (std::size_t h = 0; h + 1 < r.path.size(); ++h)
      path_ms += latency.latency_ms(overlay.host_of(r.path[h]),
                                    overlay.host_of(r.path[h + 1]));
    const double direct = latency.latency_ms(overlay.host_of(a),
                                             overlay.host_of(b));
    if (direct <= 0.0) continue;
    stats.stretch.add(path_ms / direct);
    stats.path_ms.add(path_ms);
  }
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hcube;
  const bench::Flags flags(argc, argv,
                           {{"--quick"}, {"--n", "N"}, {"--pairs", "N"},
                            {"--seed", "S"}});
  const bool quick = flags.present("--quick");
  const auto n = flags.u64("--n", quick ? 400 : 2000);
  const auto pairs = flags.u64("--pairs", quick ? 1000 : 5000);
  const auto seed = flags.u64("--seed", 61);
  const IdParams params{16, 8};

  // A transit-stub underlay gives the latency structure (near/far hosts)
  // that makes proximity optimization meaningful.
  Rng rng(seed);
  TransitStubParams ts;
  World world(params, {},
              make_transit_stub_latency(ts, static_cast<std::uint32_t>(n),
                                        rng));
  Overlay& overlay = world.overlay;
  LatencyModel& latency = world.latency();
  UniqueIdGenerator gen(params, seed);
  std::vector<NodeId> ids;
  for (std::uint64_t i = 0; i < n; ++i) ids.push_back(gen.next());
  build_consistent_network(overlay, ids);

  std::printf("# E10: routing stretch before/after nearest-neighbor table "
              "optimization\n");
  std::printf("# b=16 d=8, n=%llu over a %u-router transit-stub underlay, "
              "%llu sampled routes\n\n",
              static_cast<unsigned long long>(n), ts.total_routers(),
              static_cast<unsigned long long>(pairs));
  std::printf("%-22s | %8s %8s %8s | %10s\n", "tables", "stretch",
              "p-mean-ms", "max", "consistent");

  const auto before = measure(overlay, latency, pairs, seed + 1);
  std::printf("%-22s | %8.2f %8.1f %8.1f | %10s\n", "as-joined (arbitrary)",
              before.stretch.mean(), before.path_ms.mean(),
              before.stretch.max(),
              check_consistency(view_of(overlay)).consistent() ? "yes" : "NO");

  const auto opt = optimize_tables(overlay, latency, /*max_candidates=*/32);
  const auto after = measure(overlay, latency, pairs, seed + 1);
  std::printf("%-22s | %8.2f %8.1f %8.1f | %10s\n", "nearest-neighbor",
              after.stretch.mean(), after.path_ms.mean(),
              after.stretch.max(),
              check_consistency(view_of(overlay)).consistent() ? "yes" : "NO");

  std::printf("\n# optimizer: %llu entries examined, %llu rebound, "
              "%llu candidates scanned\n",
              static_cast<unsigned long long>(opt.entries_examined),
              static_cast<unsigned long long>(opt.entries_rebound),
              static_cast<unsigned long long>(opt.candidates_scanned));
  const bool improved = after.stretch.mean() < before.stretch.mean();
  std::printf("# stretch %s (%.2f -> %.2f)\n",
              improved ? "improved" : "DID NOT IMPROVE",
              before.stretch.mean(), after.stretch.mean());
  return improved ? 0 : 1;
}
