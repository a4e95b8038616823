// Experiment E11 (extension) — failure recovery: crash a fraction of a
// consistent network, run pull+push repair rounds, and report how fast
// consistency over the survivors is restored and at what message cost.
//
// Residual violations after each round are reported honestly: clustered
// failures can orphan a suffix class for several announce hops, so
// convergence is round-by-round, not single-shot.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hcube;
  const bench::Flags flags(
      argc, argv, {{"--quick"}, {"--n", "N"}, {"--seed", "S"}});
  const bool quick = flags.present("--quick");
  const auto n = flags.u64("--n", quick ? 300 : 1500);
  const auto seed = flags.u64("--seed", 71);
  const IdParams params{16, 8};
  constexpr SimTime kPingTimeout = 500.0;  // > 2 x max synthetic latency

  std::printf("# E11: failure recovery — crash f%% of n=%llu (b=16, d=8), "
              "repair rounds until consistent\n\n",
              static_cast<unsigned long long>(n));
  std::printf("%7s | %9s | %28s | %12s | %s\n", "crash-f", "survivors",
              "violations after round 1/2/3", "msgs/surv.", "final");

  for (const double frac : {0.01, 0.05, 0.10, 0.20, 0.30}) {
    World world(params, {},
                std::make_unique<SyntheticLatency>(
                    static_cast<std::uint32_t>(n), 5.0, 120.0, seed));
    Overlay& overlay = world.overlay;
    UniqueIdGenerator gen(params, seed);
    std::vector<NodeId> ids;
    for (std::uint64_t i = 0; i < n; ++i) ids.push_back(gen.next());
    build_consistent_network(overlay, ids);

    Rng rng(seed + static_cast<std::uint64_t>(frac * 1000));
    const auto kill_count =
        static_cast<std::size_t>(static_cast<double>(n) * frac);
    for (const auto idx :
         rng.sample_without_replacement(n, kill_count))
      world.crash(ids[idx]);

    const std::uint64_t msgs_before = overlay.totals().messages;
    std::uint64_t violations[3] = {0, 0, 0};
    for (int round = 0; round < 3; ++round) {
      world.repair_all(kPingTimeout, 1);
      violations[round] =
          check_consistency(view_of(overlay)).total_violations;
    }
    const std::uint64_t msgs =
        overlay.totals().messages - msgs_before;
    const std::size_t survivors = overlay.live_size();
    std::printf("%6.0f%% | %9zu | %10llu %6llu %6llu   | %12.1f | %s\n",
                frac * 100.0, survivors,
                static_cast<unsigned long long>(violations[0]),
                static_cast<unsigned long long>(violations[1]),
                static_cast<unsigned long long>(violations[2]),
                static_cast<double>(msgs) / static_cast<double>(survivors),
                violations[2] == 0 ? "CONSISTENT" : "residual damage");
  }
  std::printf("\n# msgs/surv. counts all repair traffic (pings, pongs, "
              "queries, announcements) per surviving node\n");
  return 0;
}
