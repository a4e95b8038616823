// Experiment E5 — Section 6.2 message-size reduction ablation.
//
// Runs the identical join wave (same IDs, gateways, latencies, schedule)
// under the three snapshot policies and reports bytes on the wire, broken
// into JoinNotiMsg traffic (what enhancement 1 shrinks), JoinNotiRlyMsg
// traffic (what the bit vector shrinks), and everything else. Consistency
// is re-verified under each policy — the paper claims the reductions are
// behavior-preserving.
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hcube;
  const bench::Flags flags(
      argc, argv, {{"--quick"}, {"--n", "N"}, {"--m", "N"}, {"--seed", "S"}});
  const bool quick = flags.present("--quick");
  const auto n = flags.u64("--n", quick ? 500 : 2000);
  const auto m = flags.u64("--m", quick ? 150 : 600);
  const auto seed = flags.u64("--seed", 21);

  std::printf("# Section 6.2 ablation: bytes on the wire per join wave\n");
  std::printf("# b=16, d=40 (the paper's large-table configuration), n=%llu,"
              " m=%llu\n\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(m));
  std::printf("%-16s | %12s %12s %10s | %s\n", "policy", "total-bytes",
              "bytes/join", "vs-full", "consistent");

  double full_bytes = 0.0;
  for (const SnapshotPolicy policy :
       {SnapshotPolicy::kFullTable, SnapshotPolicy::kPartialLevels,
        SnapshotPolicy::kBitVector}) {
    bench::JoinWaveConfig cfg;
    cfg.params = IdParams{16, 40};
    cfg.n = n;
    cfg.m = m;
    cfg.seed = seed;
    cfg.topology_latency = false;
    cfg.options.snapshot_policy = policy;
    const auto result = bench::run_join_wave(cfg);

    const auto bytes = static_cast<double>(result.totals.bytes);
    if (policy == SnapshotPolicy::kFullTable) full_bytes = bytes;
    std::printf("%-16s | %12.0f %12.1f %9.1f%% | %s\n", to_string(policy),
                bytes, bytes / static_cast<double>(m),
                100.0 * bytes / full_bytes,
                result.all_in_system && result.consistent ? "yes" : "NO");
  }
  std::printf("\n# (bytes/join counts all traffic the wave generated,"
              " divided by m)\n");
  return 0;
}
