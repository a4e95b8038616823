// Experiment E14 — Theorem 4 validation: the analytic expectation of
// #JoinNotiMsg for a SINGLE join into a network of n nodes, against the
// measured average over many simulated joins, sweeping n.
//
// The paper plots only the concurrent upper bound (Figure 15(a)); this
// bench closes the loop on the exact single-join expectation its Theorem 4
// derives. Joins are performed sequentially into a growing network, so the
// effective n drifts by < joins_per_point across a measurement point —
// negligible at these scales.
#include <cmath>
#include <cstdio>
#include <string>

#include "analysis/join_cost.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hcube;
  const bench::Flags flags(
      argc, argv, {{"--quick"}, {"--joins", "N"}, {"--seed", "S"}});
  const bool quick = flags.present("--quick");
  const auto joins = flags.u64("--joins", quick ? 30 : 100);
  const auto seed = flags.u64("--seed", 101);
  const IdParams params{16, 8};

  obs::BenchReport report("theorem4");
  report.param("quick", static_cast<std::uint64_t>(quick ? 1 : 0));
  report.param("joins", joins);
  report.param("seed", seed);
  report.metrics().counter("t4.outside_3sigma");

  std::printf("# E14: Theorem 4 — E[#JoinNotiMsg] for a single join vs "
              "measured mean of %llu joins (b=16, d=8)\n\n",
              static_cast<unsigned long long>(joins));
  std::printf("%8s | %10s %10s %10s | %s\n", "n", "theorem4", "measured",
              "stderr", "within 3 sigma?");

  bool all_ok = true;
  for (const std::uint64_t n :
       {quick ? 100ull : 200ull, quick ? 200ull : 400ull,
        quick ? 400ull : 800ull, quick ? 800ull : 1600ull,
        quick ? 1600ull : 3200ull}) {
    World world(params, {},
                std::make_unique<SyntheticLatency>(
                    static_cast<std::uint32_t>(n + joins), 5.0, 120.0,
                    seed + n));
    Overlay& overlay = world.overlay;
    UniqueIdGenerator gen(params, seed + n);
    std::vector<NodeId> v;
    for (std::uint64_t i = 0; i < n; ++i) v.push_back(gen.next());
    build_consistent_network(overlay, v);

    Rng rng(seed);
    StreamingStats stats;
    for (std::uint64_t j = 0; j < joins; ++j) {
      const NodeId x = gen.next();
      world.schedule_join(x, v[rng.next_below(v.size())], world.now());
      world.drain();
      HCUBE_CHECK(overlay.at(x).is_s_node());
      stats.add(static_cast<double>(
          overlay.at(x).join_stats().sent_of(MessageType::kJoinNoti)));
      v.push_back(x);
    }
    HCUBE_CHECK(check_consistency(view_of(overlay)).consistent());

    // Expectation at the midpoint of the drift window.
    const double expected =
        expected_join_noti_single(params, n + joins / 2);
    const double stderr_est =
        stats.stddev() / std::sqrt(static_cast<double>(joins)) + 0.05;
    const bool ok = std::abs(stats.mean() - expected) <= 3.0 * stderr_est;
    all_ok = all_ok && ok;
    std::printf("%8llu | %10.3f %10.3f %10.3f | %s\n",
                static_cast<unsigned long long>(n), expected, stats.mean(),
                stderr_est, ok ? "yes" : "OUTSIDE");

    const std::string tag = "t4.n" + std::to_string(n);
    auto& reg = report.metrics();
    reg.set_named(tag + ".expected", expected);
    reg.set_named(tag + ".measured", stats.mean());
    reg.set_named(tag + ".stderr", stderr_est);
    if (!ok) reg.add_named("t4.outside_3sigma");
  }
  std::printf("\n%s\n",
              all_ok ? "Theorem 4 matches simulation at every scale."
                     : "Mismatch beyond 3 sigma — check the model.");
  bench::write_report(report);
  return all_ok ? 0 : 1;
}
