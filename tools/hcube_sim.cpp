// hcube_sim — command-line driver for the hcube library.
//
// Subcommands:
//   wave    run a join wave into a consistent network and report costs
//   bound   evaluate the analytic model (Theorems 4/5) for given n, m, b, d
//   churn   alternate join waves and graceful leaves; audit each round
//   trace   run a small scenario and print every protocol message
//   table   print one node's neighbor table after a scenario
//
// Flags are strict (bench/flags.h): `hcube-sim <subcommand> --help`, an
// unknown flag, a malformed value or an unknown choice prints the
// subcommand's usage line and exits 2. All randomness is seeded; identical
// invocations produce identical output.
#include <cstdio>
#include <memory>
#include <string>

#include "analysis/join_cost.h"
#include "core/builder.h"
#include "core/consistency.h"
#include "core/optimize.h"
#include "core/routing.h"
#include "flags.h"
#include "topology/latency.h"
#include "util/stats.h"

namespace {

using namespace hcube;
using bench::Flags;

int usage() {
  std::fprintf(stderr,
               "usage: hcube-sim <wave|bound|churn|trace|table> [--key value ...]\n"
               "\n"
               "common flags: --b <base=16> --d <digits=8> --seed <s=1>\n"
               "  and, except for bound, --topology <synthetic|transit-stub>\n"
               "  wave:  --n <members=1000> --m <joiners=200> --backups <K=0>\n"
               "         --policy <full|partial|bitvec> --optimize <0|1>\n"
               "  bound: --n <members> --m <joiners>\n"
               "  churn: --n <members=500> --batch <50> --rounds <5>\n"
               "  trace: --n <members=4> --m <joiners=2>\n"
               "  table: --n <members=8> --node <index=0>\n");
  return 2;
}

IdParams params_of(const Flags& f) {
  const std::uint64_t b = f.u64("--b", 16), d = f.u64("--d", 8);
  if (b < 2 || b > 256) f.fail("--b must be in [2, 256]");
  if (d < 1 || d > 64) f.fail("--d must be in [1, 64]");
  return IdParams{static_cast<std::uint32_t>(b), static_cast<std::uint32_t>(d)};
}

// --n for the subcommands that build a network: at least one member.
std::uint64_t members_of(const Flags& f, std::uint64_t fallback) {
  const std::uint64_t n = f.u64("--n", fallback);
  if (n == 0) f.fail("--n must be >= 1");
  return n;
}

std::unique_ptr<LatencyModel> latency_of(const Flags& f, std::uint32_t hosts,
                                         Rng& rng) {
  if (f.text("--topology", "synthetic") == "transit-stub") {
    return make_transit_stub_latency(TransitStubParams{}, hosts, rng);
  }
  return std::make_unique<SyntheticLatency>(hosts, 5.0, 120.0,
                                            f.u64("--seed", 1));
}

SnapshotPolicy policy_of(const Flags& f) {
  const std::string p = f.text("--policy", "full");
  if (p == "partial") return SnapshotPolicy::kPartialLevels;
  if (p == "bitvec") return SnapshotPolicy::kBitVector;
  return SnapshotPolicy::kFullTable;
}

std::vector<NodeId> fresh_ids(UniqueIdGenerator& gen, std::size_t n) {
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(gen.next());
  return ids;
}

int cmd_wave(const Flags& f) {
  const IdParams params = params_of(f);
  const auto n = members_of(f, 1000), m = f.u64("--m", 200),
             seed = f.u64("--seed", 1);
  Rng rng(seed);
  ProtocolOptions options;
  options.snapshot_policy = policy_of(f);
  options.backups_per_entry =
      static_cast<std::uint32_t>(f.u64("--backups", 0));
  World world(params, options,
              latency_of(f, static_cast<std::uint32_t>(n + m), rng));
  Overlay& overlay = world.overlay;
  UniqueIdGenerator gen(params, seed);
  const auto v = fresh_ids(gen, n);
  const auto w = fresh_ids(gen, m);
  build_consistent_network(overlay, v);
  join_concurrently(world, w, v, rng);

  EmpiricalDistribution noti, copy_wait;
  StreamingStats duration;
  for (const NodeId& x : w) {
    const JoinStats& s = overlay.at(x).join_stats();
    noti.add(static_cast<std::int64_t>(s.sent_of(MessageType::kJoinNoti)));
    copy_wait.add(static_cast<std::int64_t>(s.copy_plus_wait()));
    duration.add(s.t_end - s.t_begin);
  }
  if (f.text("--optimize", "0") == "1") {
    const auto opt = optimize_tables(overlay, world.latency());
    std::printf("optimizer rebound %llu of %llu entries\n",
                static_cast<unsigned long long>(opt.entries_rebound),
                static_cast<unsigned long long>(opt.entries_examined));
  }
  const auto report = check_consistency(view_of(overlay));

  std::printf("join wave: n=%llu m=%llu b=%u d=%u policy=%s seed=%llu\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(m), params.base,
              params.num_digits, to_string(options.snapshot_policy),
              static_cast<unsigned long long>(seed));
  std::printf("  all in system:        %s\n",
              overlay.all_in_system() ? "yes" : "NO");
  std::printf("  consistent:           %s\n",
              report.consistent() ? "yes" : "NO");
  std::printf("  JoinNotiMsg/joiner:   mean %.3f  p99 %lld  max %lld"
              "  (Theorem 5 bound %.3f)\n",
              noti.mean(), static_cast<long long>(noti.quantile(0.99)),
              static_cast<long long>(noti.max()),
              expected_join_noti_concurrent_bound(params, n, m));
  std::printf("  CpRst+JoinWait/joiner: mean %.3f  max %lld  (bound %llu)\n",
              copy_wait.mean(), static_cast<long long>(copy_wait.max()),
              static_cast<unsigned long long>(theorem3_bound(params)));
  std::printf("  join latency (sim ms): mean %.1f  max %.1f\n",
              duration.mean(), duration.max());
  std::printf("  total messages: %llu (%llu bytes)\n",
              static_cast<unsigned long long>(overlay.totals().messages),
              static_cast<unsigned long long>(overlay.totals().bytes));
  for (std::size_t t = 0; t < kNumMessageTypes; ++t) {
    if (overlay.totals().sent[t] == 0) continue;
    std::printf("    %-16s %llu\n", type_name(static_cast<MessageType>(t)),
                static_cast<unsigned long long>(overlay.totals().sent[t]));
  }
  return overlay.all_in_system() && report.consistent() ? 0 : 1;
}

int cmd_bound(const Flags& f) {
  const IdParams params = params_of(f);
  const auto n = f.u64("--n", 1000), m = f.u64("--m", 0);
  std::printf("P_i(n): notification-level distribution for n=%llu, b=%u, d=%u\n",
              static_cast<unsigned long long>(n), params.base,
              params.num_digits);
  const auto p = notification_level_distribution(params, n);
  for (std::uint32_t i = 0; i < params.num_digits; ++i)
    if (p[i] > 1e-12) std::printf("  P_%u = %.6f\n", i, p[i]);
  std::printf("Theorem 4  E[J] single join:        %.3f\n",
              expected_join_noti_single(params, n));
  if (m > 0)
    std::printf("Theorem 5  E[J] bound, m=%llu:      %.3f\n",
                static_cast<unsigned long long>(m),
                expected_join_noti_concurrent_bound(params, n, m));
  std::printf("Theorem 3  CpRst+JoinWait bound:     %llu\n",
              static_cast<unsigned long long>(theorem3_bound(params)));
  return 0;
}

int cmd_churn(const Flags& f) {
  const IdParams params = params_of(f);
  const auto n = members_of(f, 500), batch = f.u64("--batch", 50),
             rounds = f.u64("--rounds", 5), seed = f.u64("--seed", 1);
  Rng rng(seed);
  World world(params, {},
              latency_of(f, static_cast<std::uint32_t>(n + batch * rounds + 8),
                         rng));
  Overlay& overlay = world.overlay;
  UniqueIdGenerator gen(params, seed);
  auto live = fresh_ids(gen, n);
  build_consistent_network(overlay, live);

  for (std::uint64_t round = 0; round < rounds; ++round) {
    const auto joiners = fresh_ids(gen, batch);
    join_concurrently(world, joiners, live, rng);
    live.insert(live.end(), joiners.begin(), joiners.end());
    for (std::uint64_t i = 0; i < batch; ++i) {
      const std::size_t victim = rng.next_below(live.size());
      leave_and_drain(world, live[victim]);
      live.erase(live.begin() + static_cast<long>(victim));
    }
    const bool ok = overlay.all_in_system() &&
                    check_consistency(view_of(overlay)).consistent();
    std::printf("round %llu: live=%zu consistent=%s\n",
                static_cast<unsigned long long>(round), live.size(),
                ok ? "yes" : "NO");
    if (!ok) return 1;
  }
  return 0;
}

int cmd_trace(const Flags& f) {
  const IdParams params = params_of(f);
  const auto n = members_of(f, 4), m = f.u64("--m", 2),
             seed = f.u64("--seed", 1);
  Rng rng(seed);
  World world(params, {},
              latency_of(f, static_cast<std::uint32_t>(n + m), rng));
  Overlay& overlay = world.overlay;
  UniqueIdGenerator gen(params, seed);
  const auto v = fresh_ids(gen, n);
  const auto w = fresh_ids(gen, m);

  overlay.on_message = [&](const NodeId& from, const NodeId& to,
                           const MessageBody& body) {
    std::printf("%10.2f  %-12s  %s -> %s\n", overlay.now(),
                type_name(type_of(body)), from.to_string(params).c_str(),
                to.to_string(params).c_str());
  };
  build_consistent_network(overlay, v);
  std::printf("# %llu-node network built; joining %llu nodes concurrently\n",
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(m));
  join_concurrently(world, w, v, rng);
  std::printf("# done: all in system = %s, consistent = %s\n",
              overlay.all_in_system() ? "yes" : "NO",
              check_consistency(view_of(overlay)).consistent() ? "yes" : "NO");
  return 0;
}

int cmd_table(const Flags& f) {
  const IdParams params = params_of(f);
  const auto n = members_of(f, 8), seed = f.u64("--seed", 1);
  const auto index = f.u64("--node", 0);
  if (index >= n) f.fail("--node must be below --n");
  Rng rng(seed);
  World world(params, {}, latency_of(f, static_cast<std::uint32_t>(n), rng));
  UniqueIdGenerator gen(params, seed);
  const auto ids = fresh_ids(gen, n);
  initialize_network(world, ids, rng);
  std::printf("%s", world.overlay.at(ids[index]).table().to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Flags::Spec b{"--b", "B"}, d{"--d", "D"}, seed{"--seed", "S"};
  const Flags::Spec n{"--n", "N"}, m{"--m", "M"};
  const Flags::Spec topology{"--topology", "synthetic|transit-stub",
                             Flags::kChoice};
  if (cmd == "wave")
    return cmd_wave(Flags::subcommand(
        argc, argv,
        {b, d, seed, n, m, {"--backups", "K"},
         {"--policy", "full|partial|bitvec", Flags::kChoice}, topology,
         {"--optimize", "0|1", Flags::kChoice}}));
  if (cmd == "bound")
    return cmd_bound(Flags::subcommand(argc, argv, {b, d, seed, n, m}));
  if (cmd == "churn")
    return cmd_churn(Flags::subcommand(
        argc, argv,
        {b, d, seed, n, {"--batch", "B"}, {"--rounds", "R"}, topology}));
  if (cmd == "trace")
    return cmd_trace(
        Flags::subcommand(argc, argv, {b, d, seed, n, m, topology}));
  if (cmd == "table")
    return cmd_table(Flags::subcommand(
        argc, argv, {b, d, seed, n, {"--node", "I"}, topology}));
  return usage();
}
