// Experiment E4 — Theorem 3: for every joining node, the number of CpRstMsg
// plus JoinWaitMsg it sends is at most d + 1, across parameter sweeps and
// under heavy concurrency. Prints the observed per-joiner maximum next to
// the bound (a violation would mean the protocol is wrong, not the model).
#include <cstdio>
#include <string>

#include "analysis/join_cost.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hcube;
  const bench::Flags flags(argc, argv, {{"--quick"}, {"--seed", "S"}});
  const bool quick = flags.present("--quick");
  const auto seed = flags.u64("--seed", 11);

  obs::BenchReport report("theorem3");
  report.param("quick", static_cast<std::uint64_t>(quick ? 1 : 0));
  report.param("seed", seed);
  // Registered up front so a clean run still exports t3.violations = 0 for
  // CI's bench-trend gate to read.
  report.metrics().counter("t3.violations");

  struct Case {
    std::uint32_t b, d;
    std::size_t n, m;
  };
  const Case cases[] = {
      {2, 12, 200, 200},   {4, 8, 400, 300},   {8, 6, 500, 400},
      {16, 8, 1000, 500},  {16, 40, 1000, 500}, {16, 8, 30, 300},
      {4, 6, 5, 200},
  };

  std::printf("# Theorem 3: per-joiner #CpRstMsg + #JoinWaitMsg <= d + 1\n");
  std::printf("%4s %4s %7s %7s | %9s %9s %6s | %s\n", "b", "d", "n", "m",
              "max-seen", "mean", "bound", "verdict");
  bool all_ok = true;
  for (const auto& c : cases) {
    bench::JoinWaveConfig cfg;
    cfg.params = IdParams{c.b, c.d};
    cfg.n = quick ? std::max<std::size_t>(c.n / 4, 4) : c.n;
    cfg.m = quick ? std::max<std::size_t>(c.m / 4, 4) : c.m;
    cfg.seed = seed;
    cfg.topology_latency = false;  // latency model is irrelevant to the bound
    const auto result = bench::run_join_wave(cfg);
    const auto bound = theorem3_bound(cfg.params);
    const bool ok = result.all_in_system && result.consistent &&
                    static_cast<std::uint64_t>(result.copy_wait.max()) <=
                        bound;
    all_ok = all_ok && ok;

    const std::string tag = "t3.b" + std::to_string(c.b) + ".d" +
                            std::to_string(c.d) + ".n" + std::to_string(cfg.n) +
                            ".m" + std::to_string(cfg.m);
    auto& reg = report.metrics();
    reg.set_named(tag + ".copy_wait_max",
                  static_cast<double>(result.copy_wait.max()));
    reg.set_named(tag + ".copy_wait_mean", result.copy_wait.mean());
    reg.set_named(tag + ".bound", static_cast<double>(bound));
    bench::observe_distribution(reg, tag + ".copy_wait", result.copy_wait);
    if (!ok) reg.add_named("t3.violations");
    std::printf("%4u %4u %7zu %7zu | %9lld %9.3f %6llu | %s\n", c.b, c.d,
                cfg.n, cfg.m, static_cast<long long>(result.copy_wait.max()),
                result.copy_wait.mean(),
                static_cast<unsigned long long>(bound),
                ok ? "holds" : "VIOLATION");
  }
  std::printf("\n%s\n", all_ok ? "Theorem 3 bound held in every run."
                               : "THEOREM 3 VIOLATED — investigate!");
  bench::write_report(report);
  return all_ok ? 0 : 1;
}
