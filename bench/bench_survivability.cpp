// Experiment E12 (extension) — routing survivability with redundant
// neighbors (Section 2.1's extra per-entry neighbors, used by Tapestry for
// fault-tolerant routing).
//
// Crash a fraction of a consistent network and, BEFORE any repair runs,
// measure the fraction of sampled live-pair routes that still succeed:
//   - plain suffix routing (primary entries only), versus
//   - fault-tolerant routing falling back to K backups per entry.
// The repair protocol (bench_recovery) restores the tables afterwards; this
// experiment quantifies how well the network limps along in between.
// A second table (E12b) measures partition-heal behaviour: a two-group cut
// opens while joins whose gateways sit across it are in flight. The ARQ
// layer keeps retransmitting into the cut until the window closes, so every
// join stalls for the window and completes shortly after the heal; the row
// reports how much traffic the cut cost and how long after the heal the
// last joiner settled.
#include <algorithm>
#include <cstdio>
#include <string>

#include "core/routing.h"
#include "net/fault_plan.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hcube;
  const bench::Flags flags(argc, argv,
                           {{"--quick"}, {"--n", "N"}, {"--pairs", "N"},
                            {"--seed", "S"}, {"--heal-n", "N"}});
  const bool quick = flags.present("--quick");
  const auto n = flags.u64("--n", quick ? 400 : 2000);
  const auto pairs = flags.u64("--pairs", quick ? 1500 : 5000);
  const auto seed = flags.u64("--seed", 81);
  const IdParams params{16, 8};

  obs::BenchReport report("survivability");
  report.param("quick", static_cast<std::uint64_t>(quick ? 1 : 0));
  report.param("n", n);
  report.param("pairs", pairs);
  report.param("seed", seed);

  std::printf("# E12: fraction of routes that survive f%% crashes BEFORE "
              "repair (n=%llu, b=16, d=8)\n\n",
              static_cast<unsigned long long>(n));
  std::printf("%7s | %10s | %10s %10s %10s\n", "crash-f", "primary-only",
              "K=1", "K=2", "K=3");

  for (const double frac : {0.05, 0.10, 0.20, 0.30}) {
    std::printf("%6.0f%% |", frac * 100.0);
    for (const std::uint32_t k : {0u, 1u, 2u, 3u}) {
      ProtocolOptions options;
      options.backups_per_entry = k;
      World world(params, options,
                  std::make_unique<SyntheticLatency>(
                      static_cast<std::uint32_t>(n), 5.0, 120.0, seed));
      Overlay& overlay = world.overlay;
      UniqueIdGenerator gen(params, seed);
      std::vector<NodeId> ids;
      for (std::uint64_t i = 0; i < n; ++i) ids.push_back(gen.next());
      build_consistent_network(overlay, ids);

      Rng rng(seed + k);
      const auto kill =
          static_cast<std::size_t>(static_cast<double>(n) * frac);
      for (const auto idx : rng.sample_without_replacement(n, kill))
        world.crash(ids[idx]);
      const NetworkView live = view_of(overlay);

      std::uint64_t ok = 0, trials = 0;
      Rng sample(seed + 100);
      while (trials < pairs) {
        const NodeId& a = ids[sample.next_below(ids.size())];
        const NodeId& b = ids[sample.next_below(ids.size())];
        if (a == b || !live.contains(a) || !live.contains(b)) continue;
        ++trials;
        const auto r = k == 0 ? route(live, a, b)
                              : route_fault_tolerant(live, a, b);
        if (r.success) ++ok;
      }
      const double survived =
          static_cast<double>(ok) / static_cast<double>(trials);
      if (k == 0) {
        std::printf(" %11.4f |", survived);
      } else {
        std::printf(" %10.4f", survived);
      }
      report.metrics().set_named(
          "survive.f" + std::to_string(static_cast<int>(frac * 100.0)) + ".k" +
              std::to_string(k),
          survived);
    }
    std::printf("\n");
  }
  std::printf("\n# (K = redundant neighbors per entry; the paper's Section 3"
              " model is K = 0)\n");

  // E12b: joins across a two-group partition stall for the window, then
  // complete once the cut heals (the reliable layer's buffered
  // retransmissions flow across the former cut).
  const auto heal_n = flags.u64("--heal-n", quick ? 64 : 256);
  const std::uint32_t joiners = 8;
  std::printf("\n# E12b: partition-heal — %u joins across a 2-group cut "
              "(n=%llu)\n\n",
              joiners, static_cast<unsigned long long>(heal_n));
  std::printf("%9s | %15s %11s | %20s\n", "window-ms", "partition-drops",
              "retransmits", "last-settle-after-heal");

  for (const double window_ms : {500.0, 1500.0, 3000.0}) {
    const auto hosts = static_cast<std::uint32_t>(heal_n) + joiners;
    World world(params, {},
                std::make_unique<SyntheticLatency>(hosts, 5.0, 120.0, seed),
                ShardedNet::Params{1, ReliabilityConfig{100.0, 2.0, 8}});
    FaultPlan plan(seed + 9);
    plan.attach(world.net.lane_transport(0));
    Overlay& overlay = world.overlay;

    UniqueIdGenerator gen(params, seed);
    std::vector<NodeId> ids;
    for (std::uint32_t i = 0; i < hosts; ++i) ids.push_back(gen.next());
    const std::vector<NodeId> members(ids.begin(), ids.begin() + heal_n);
    build_consistent_network(overlay, members);

    std::vector<std::vector<HostId>> groups(2);
    for (HostId h = 0; h < hosts; ++h) groups[h & 1].push_back(h);
    plan.partition(groups, 0.0, window_ms);
    for (std::uint32_t k = 0; k < joiners; ++k) {
      // Gateway on the other side of the cut from the joiner's host.
      const std::uint32_t joiner_host = static_cast<std::uint32_t>(heal_n) + k;
      const std::uint32_t gateway = 2 * k + ((joiner_host & 1) ^ 1);
      world.schedule_join(ids[joiner_host], ids[gateway],
                          10.0 + static_cast<SimTime>(k));
    }
    world.drain();

    SimTime last_settle = 0.0;
    for (std::uint32_t k = 0; k < joiners; ++k)
      last_settle = std::max(
          last_settle, overlay.at(ids[heal_n + k]).join_stats().t_end);
    std::printf("%9.0f | %15llu %11llu | %17.1fms\n", window_ms,
                static_cast<unsigned long long>(plan.partition_drops()),
                static_cast<unsigned long long>(
                    world.net.rel_stats().retransmits),
                last_settle - window_ms);

    const std::string tag =
        "heal.w" + std::to_string(static_cast<int>(window_ms));
    auto& reg = report.metrics();
    reg.add_named(tag + ".partition_drops", plan.partition_drops());
    reg.add_named(tag + ".retransmits", world.net.rel_stats().retransmits);
    reg.set_named(tag + ".settle_after_heal_ms", last_settle - window_ms);
  }
  std::printf("\n# (ARQ: rto=100ms, backoff=2, 8 retries — the retry span "
              "outlives every window, so no join is abandoned)\n");
  bench::write_report(report);
  return 0;
}
