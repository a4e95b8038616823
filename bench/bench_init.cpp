// Experiment E7 — Section 6.1 network initialization: grow a network from a
// single seed node to n members using only the join protocol, both
// sequentially and as one concurrent burst, verifying consistency and
// reporting the message cost per join as the network grows.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hcube;
  const bench::Flags flags(argc, argv, {{"--quick"}, {"--seed", "S"}});
  const bool quick = flags.present("--quick");
  const auto seed = flags.u64("--seed", 41);
  const IdParams params{16, 8};

  std::printf("# Section 6.1: network initialization from one seed node\n");
  std::printf("# b=16 d=8; every node joins via the protocol\n\n");
  std::printf("%-12s %7s | %9s %9s %9s | %11s %10s\n", "mode", "n",
              "msgs/join", "big/join", "bytes/join", "sim-time-ms",
              "consistent");

  for (const std::size_t n : {quick ? 64u : 256u, quick ? 128u : 1024u,
                              quick ? 256u : 4096u}) {
    for (const bool concurrent : {false, true}) {
      World world(params, {},
                  std::make_unique<SyntheticLatency>(
                      static_cast<std::uint32_t>(n), 5.0, 120.0, seed));
      Overlay& overlay = world.overlay;
      UniqueIdGenerator gen(params, seed + n);
      std::vector<NodeId> ids;
      for (std::size_t i = 0; i < n; ++i) ids.push_back(gen.next());
      Rng rng(seed);
      initialize_network(world, ids, rng, concurrent);

      const bool ok = overlay.all_in_system() &&
                      check_consistency(view_of(overlay)).consistent();
      const auto& totals = overlay.totals();
      std::uint64_t big = 0;
      for (std::size_t t = 0; t < kNumMessageTypes; ++t)
        if (is_big_request(static_cast<MessageType>(t)))
          big += totals.sent[t];
      const double joins = static_cast<double>(n - 1);
      std::printf("%-12s %7zu | %9.1f %9.2f %9.0f | %11.0f %10s\n",
                  concurrent ? "concurrent" : "sequential", n,
                  static_cast<double>(totals.messages) / joins,
                  static_cast<double>(big) / joins,
                  static_cast<double>(totals.bytes) / joins, world.now(),
                  ok ? "yes" : "NO");
    }
  }
  std::printf("\n# big/join counts CpRstMsg + JoinWaitMsg + JoinNotiMsg "
              "requests (replies are 1:1)\n");
  return 0;
}
