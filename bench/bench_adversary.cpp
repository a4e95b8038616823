// Planet-scale adversary bench: what does a misbehaving fraction cost the
// honest majority?
//
// For each misbehaving fraction f, a fresh overlay of n settled nodes is
// built over the PlanetLatency map (region-clustered measured-RTT-style
// delays) with the full chaos transport stack — lossy SimTransport +
// FaultPlan, healed by the ReliableTransport ARQ — and the defensive
// hardening of DESIGN.md §14 enabled. ceil(f·n) nodes are then marked
// misbehaving (2:1 stale-table responders to reply-droppers, the headline
// profiles), and a flash-crowd wave of m joiners arrives through random
// gateways — adversaries included. Per fraction the bench reports:
//   adv.f<pct>.completion_rate   settled joiners / m
//   adv.f<pct>.join_latency_ms   per-completed-join t_end - t_begin
//   adv.f<pct>.p99_latency_ms    its p99, as a gauge for trend lines
//   adv.f<pct>.noti_per_join     JoinNotiMsg sent per joiner (overhead)
//   adv.f<pct>.give_ups          ARQ retry budgets exhausted
//   adv.f<pct>.intercepted       deliveries the adversaries touched
// into BENCH_adversary.json (hcube.bench.v1, hcstat-validated in CI).
//
// The f = 0 row is the guardrail: with nobody misbehaving every join must
// complete (nonzero exit otherwise), so the sweep's degradation is
// attributable to the adversaries alone.
//
// Usage: bench_adversary [--n N] [--m M] [--seed S] [--quick]
//   --quick   n=48, m=96, fractions {0,10,20}% (CI bench-trend);
//             default n=240, m=480, fractions {0,5,10,15,20}%

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "chaos/adversary.h"
#include "net/fault_plan.h"

namespace hcube::bench {
namespace {

struct FractionRow {
  std::uint32_t pct = 0;
  double completion_rate = 0.0;
  double p99_ms = 0.0;
  double noti_per_join = 0.0;
  std::uint64_t give_ups = 0;
  std::uint64_t intercepted = 0;
  std::vector<double> latencies_ms;  // completed joins only
};

FractionRow run_fraction(std::uint32_t pct, std::size_t n, std::size_t m,
                         std::uint64_t seed, const IdParams& params) {
  ProtocolOptions options;
  options.join_watchdog_ms = 8000.0;
  options.join_max_restarts = 8;
  options.validate_repair_candidates = true;
  options.reply_timeout_ms = 2000.0;
  options.suspect_aware_rotation = true;
  World world(params, options,
              std::make_unique<PlanetLatency>(
                  static_cast<std::uint32_t>(n + m), seed));
  FaultPlan plan(seed ^ 0xfau, {.drop = 0.01, .duplicate = 0.005});
  plan.attach(world.net.lane_transport(0));
  Overlay& overlay = world.overlay;
  AdversaryEngine adversary(overlay);

  UniqueIdGenerator gen(params, seed ^ 0x5eed);
  std::vector<NodeId> v, w;
  v.reserve(n);
  w.reserve(m);
  for (std::size_t i = 0; i < n; ++i) v.push_back(gen.next());
  for (std::size_t i = 0; i < m; ++i) w.push_back(gen.next());
  build_consistent_network(overlay, v);

  // ceil(pct% of n) adversaries, strided across the (id-sorted-by-arrival)
  // seed set so no region of the suffix space is spared, 2:1 stale-table
  // to reply-dropper.
  const std::size_t k = (n * pct + 99) / 100;
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t victim = (i * n) / k;
    const std::uint32_t profiles = (i % 3) < 2
                                       ? AdversaryEngine::kStaleTable
                                       : AdversaryEngine::kReplyDropper;
    adversary.mark(overlay.at(v[victim]), profiles);
  }

  // Flash-crowd wave through random gateways — adversaries included; the
  // suspect-aware rotation is what routes a stuck join away from them.
  Rng rng(seed);
  join_concurrently(world, w, v, rng, /*window_ms=*/4000.0);

  FractionRow row;
  row.pct = pct;
  std::uint64_t completed = 0;
  std::uint64_t noti_sent = 0;
  for (const NodeId& x : w) {
    const Node& node = overlay.at(x);
    noti_sent += node.join_stats().sent_of(MessageType::kJoinNoti);
    if (node.status() != NodeStatus::kInSystem) continue;
    ++completed;
    const JoinStats& s = node.join_stats();
    row.latencies_ms.push_back(s.t_end - s.t_begin);
  }
  row.completion_rate =
      m > 0 ? static_cast<double>(completed) / static_cast<double>(m) : 0.0;
  row.noti_per_join =
      m > 0 ? static_cast<double>(noti_sent) / static_cast<double>(m) : 0.0;
  row.give_ups = world.net.rel_stats().give_ups;
  row.intercepted = adversary.counters().intercepted;
  if (!row.latencies_ms.empty()) {
    std::sort(row.latencies_ms.begin(), row.latencies_ms.end());
    const std::size_t idx = (row.latencies_ms.size() - 1) * 99 / 100;
    row.p99_ms = row.latencies_ms[idx];
  }
  return row;
}

int main_impl(int argc, char** argv) {
  const Flags flags(
      argc, argv, {{"--quick"}, {"--n", "N"}, {"--m", "N"}, {"--seed", "S"}});
  const bool quick = flags.present("--quick");
  const std::size_t n =
      static_cast<std::size_t>(flags.u64("--n", quick ? 48 : 240));
  const std::size_t m = static_cast<std::size_t>(
      flags.u64("--m", quick ? 96 : 480));
  const std::uint64_t seed = flags.u64("--seed", 1);
  const IdParams params{16, 8};
  const std::vector<std::uint32_t> fractions =
      quick ? std::vector<std::uint32_t>{0, 10, 20}
            : std::vector<std::uint32_t>{0, 5, 10, 15, 20};

  std::printf("adversary: n=%zu m=%zu seed=%llu planet-latency defend=on\n",
              n, m, static_cast<unsigned long long>(seed));

  obs::BenchReport report("adversary");
  report.param("quick", static_cast<std::uint64_t>(quick ? 1 : 0));
  report.param("n", static_cast<std::uint64_t>(n));
  report.param("m", static_cast<std::uint64_t>(m));
  report.param("seed", seed);
  auto& reg = report.metrics();

  bool clean_baseline = true;
  for (const std::uint32_t pct : fractions) {
    const FractionRow row = run_fraction(pct, n, m, seed, params);
    std::printf(
        "  f=%2u%%: completion %.4f, p99 %.0f ms, %.2f JoinNoti/join, "
        "%llu give-ups, %llu intercepted\n",
        pct, row.completion_rate, row.p99_ms, row.noti_per_join,
        static_cast<unsigned long long>(row.give_ups),
        static_cast<unsigned long long>(row.intercepted));
    const std::string prefix = "adv.f" + std::to_string(pct);
    reg.set_named(prefix + ".completion_rate", row.completion_rate);
    reg.set_named(prefix + ".p99_latency_ms", row.p99_ms);
    reg.set_named(prefix + ".noti_per_join", row.noti_per_join);
    reg.set_named(prefix + ".give_ups", static_cast<double>(row.give_ups));
    reg.set_named(prefix + ".intercepted",
                  static_cast<double>(row.intercepted));
    const auto hist = reg.histogram(prefix + ".join_latency_ms");
    for (const double ms : row.latencies_ms) reg.observe(hist, ms);
    if (pct == 0 && row.completion_rate < 1.0) clean_baseline = false;
  }
  write_report(report);

  if (!clean_baseline) {
    std::fprintf(stderr,
                 "FAIL: f=0%% wave did not fully complete — degradation "
                 "would not be attributable to the adversaries\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hcube::bench

int main(int argc, char** argv) { return hcube::bench::main_impl(argc, argv); }
