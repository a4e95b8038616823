// Experiments E2 + E3 — Figure 15(b) and the in-text table of Section 5.2:
// event-driven simulation of 1000 concurrent joins into consistent networks
// of 3096 and 7192 nodes (b = 16, d = 8 and 40), end hosts attached to a
// transit-stub router topology (our GT-ITM substitute — DESIGN.md §5).
//
// Prints, per setup:
//   - the cumulative distribution of #JoinNotiMsg sent per joining node
//     (the curves of Figure 15(b)),
//   - measured average vs the Theorem 5 upper bound, next to the values the
//     paper reports (averages 6.117 / 6.051 / 5.026 / 5.399; bounds
//     8.001 / 8.001 / 6.986 / 6.986).
//
// Flags: --m <joiners> --seed <s> --quick (n=774/1798, m=250).
#include <cstdio>
#include <string>

#include "analysis/join_cost.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hcube;
  const bench::Flags flags(
      argc, argv, {{"--quick"}, {"--m", "N"}, {"--seed", "S"}});
  const bool quick = flags.present("--quick");
  const auto m = flags.u64("--m", quick ? 250 : 1000);
  const auto seed = flags.u64("--seed", 1);

  obs::BenchReport report("fig15b");
  report.param("quick", static_cast<std::uint64_t>(quick ? 1 : 0));
  report.param("m", m);
  report.param("seed", seed);

  struct Setup {
    std::size_t n;
    std::uint32_t d;
  };
  const Setup setups[] = {{quick ? 774u : 3096u, 8},
                          {quick ? 774u : 3096u, 40},
                          {quick ? 1798u : 7192u, 8},
                          {quick ? 1798u : 7192u, 40}};
  const double paper_avg[] = {6.117, 6.051, 5.026, 5.399};

  std::printf("# Figure 15(b): CDF of #JoinNotiMsg sent by a joining node\n");
  std::printf("# b=16, m=%llu concurrent joins, transit-stub underlay\n\n",
              static_cast<unsigned long long>(m));

  struct Row {
    Setup setup;
    double avg, bound;
    bool ok;
  };
  std::vector<Row> rows;

  for (std::size_t s = 0; s < 4; ++s) {
    bench::JoinWaveConfig cfg;
    cfg.params = IdParams{16, setups[s].d};
    cfg.n = setups[s].n;
    cfg.m = m;
    cfg.seed = seed + s;
    cfg.topology_latency = true;
    const auto result = bench::run_join_wave(cfg);

    std::printf("## setup: n=%zu, m=%llu, b=16, d=%u  (all joins at t=0)\n",
                cfg.n, static_cast<unsigned long long>(m), setups[s].d);
    std::printf("#  %-18s %s\n", "#JoinNotiMsg", "cumulative fraction");
    for (const auto& [value, p] : result.join_noti.cdf_points())
      std::printf("   %-18lld %.4f\n", static_cast<long long>(value), p);

    const double bound = expected_join_noti_concurrent_bound(
        cfg.params, cfg.n, m);
    rows.push_back({setups[s], result.join_noti.mean(), bound,
                    result.all_in_system && result.consistent});

    const std::string tag =
        "fig15b.n" + std::to_string(cfg.n) + ".d" + std::to_string(setups[s].d);
    auto& reg = report.metrics();
    reg.set_named(tag + ".join_noti_mean", result.join_noti.mean());
    reg.set_named(tag + ".bound", bound);
    bench::observe_distribution(reg, tag + ".join_noti", result.join_noti);
    std::printf("#  mean=%.3f p99=%lld max=%lld  consistent=%s\n\n",
                result.join_noti.mean(),
                static_cast<long long>(result.join_noti.quantile(0.99)),
                static_cast<long long>(result.join_noti.max()),
                result.all_in_system && result.consistent ? "yes" : "NO");
  }

  std::printf("# Section 5.2 table: average #JoinNotiMsg per joiner\n");
  std::printf("%8s %4s | %10s %12s | %10s %10s | %s\n", "n", "d", "measured",
              "paper-avg", "bound(T5)", "paper-bnd", "verdict");
  for (std::size_t s = 0; s < rows.size(); ++s) {
    const auto& r = rows[s];
    const double paper_bound = r.setup.n > 4000 ? 6.986 : 8.001;
    std::printf("%8zu %4u | %10.3f %12.3f | %10.3f %10.3f | %s\n", r.setup.n,
                r.setup.d, r.avg, quick ? 0.0 : paper_avg[s], r.bound,
                quick ? 0.0 : paper_bound,
                r.avg <= r.bound && r.ok ? "below bound, consistent"
                                         : "VIOLATION");
  }
  bench::write_report(report);
  return 0;
}
