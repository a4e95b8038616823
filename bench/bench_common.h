// Shared workload runner for the benchmark/experiment binaries.
//
// Each bench regenerates one table or figure of the paper (see DESIGN.md's
// per-experiment index). The common piece is a "join wave": build a
// consistent network of n nodes, join m more concurrently, and collect
// per-joiner message statistics.
#pragma once

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/builder.h"
#include "core/consistency.h"
#include "core/overlay.h"
#include "core/routing.h"
#include "core/world.h"
#include "flags.h"
#include "obs/bench_report.h"
#include "topology/latency.h"
#include "util/stats.h"

namespace hcube::bench {

struct JoinWaveConfig {
  IdParams params{16, 8};
  std::size_t n = 3096;  // initial consistent network size
  std::size_t m = 1000;  // concurrent joiners
  std::uint64_t seed = 1;
  ProtocolOptions options;
  // true: transit-stub router topology (as in the paper's GT-ITM setup);
  // false: cheap synthetic pairwise latencies.
  bool topology_latency = true;
  std::uint32_t routers_scale = 1;  // multiplies the default 2080 routers
};

struct JoinWaveResult {
  EmpiricalDistribution join_noti;  // #JoinNotiMsg sent, per joiner
  EmpiricalDistribution copy_wait;  // #CpRstMsg + #JoinWaitMsg, per joiner
  StreamingStats join_duration_ms;  // t^e_x - t^b_x
  Overlay::Totals totals;
  std::uint64_t events = 0;
  double sim_ms = 0.0;
  bool all_in_system = false;
  bool consistent = false;
};

inline JoinWaveResult run_join_wave(const JoinWaveConfig& cfg) {
  Rng rng(cfg.seed);
  std::unique_ptr<LatencyModel> latency;
  if (cfg.topology_latency) {
    TransitStubParams ts;
    ts.transit_nodes_per_domain *= cfg.routers_scale;
    latency = make_transit_stub_latency(
        ts, static_cast<std::uint32_t>(cfg.n + cfg.m), rng);
  } else {
    latency = std::make_unique<SyntheticLatency>(
        static_cast<std::uint32_t>(cfg.n + cfg.m), 5.0, 120.0, cfg.seed);
  }
  World world(cfg.params, cfg.options, std::move(latency));
  Overlay& overlay = world.overlay;

  UniqueIdGenerator gen(cfg.params, cfg.seed ^ 0x5eed);
  std::vector<NodeId> v, w;
  v.reserve(cfg.n);
  w.reserve(cfg.m);
  for (std::size_t i = 0; i < cfg.n; ++i) v.push_back(gen.next());
  for (std::size_t i = 0; i < cfg.m; ++i) w.push_back(gen.next());

  build_consistent_network(overlay, v);
  // As in the paper's simulations, all joins start at the same time.
  join_concurrently(world, w, v, rng, /*window_ms=*/0.0);

  JoinWaveResult result;
  for (const NodeId& x : w) {
    const JoinStats& s = overlay.at(x).join_stats();
    result.join_noti.add(
        static_cast<std::int64_t>(s.sent_of(MessageType::kJoinNoti)));
    result.copy_wait.add(static_cast<std::int64_t>(s.copy_plus_wait()));
    result.join_duration_ms.add(s.t_end - s.t_begin);
  }
  result.totals = overlay.totals();
  result.events = world.net.driver().events_processed();
  result.sim_ms = world.now();
  result.all_in_system = overlay.all_in_system();
  result.consistent = check_consistency(view_of(overlay)).consistent();
  return result;
}

// Folds a per-joiner empirical distribution into a registry log-histogram,
// so bench JSON carries the distribution shape, not just its mean.
inline void observe_distribution(obs::MetricsRegistry& reg,
                                 std::string_view name,
                                 const EmpiricalDistribution& dist) {
  const auto id = reg.histogram(name);
  for (const auto& [value, count] : dist.buckets())
    for (std::uint64_t i = 0; i < count; ++i)
      reg.observe(id, static_cast<double>(value));
}

// Writes BENCH_<name>.json into the working directory and echoes the path
// (CI's bench-trend job uploads these as artifacts).
inline void write_report(obs::BenchReport& report) {
  const std::string path = report.write();
  if (path.empty())
    std::fprintf(stderr, "# WARNING: failed to write bench report\n");
  else
    std::printf("\n# metrics: %s\n", path.c_str());
}

}  // namespace hcube::bench
