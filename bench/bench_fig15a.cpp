// Experiment E1 — Figure 15(a): theoretical upper bound of E(J), the
// expected number of JoinNotiMsg sent by a joining node, when a set of m
// nodes joins a consistent network of n nodes concurrently (Theorem 5).
//
// Reproduces the four curves of the paper's Figure 15(a):
//   m=500/1000, b=16, d=40   and   m=500/1000, b=16, d=8
// over n = 10,000 .. 100,000. The paper's curves rise slowly (roughly one
// message per decade of n) and sit in the 3-9 band; d barely matters (the
// notification level distribution depends on n through the suffix tail,
// which is identical for d=8 and d=40 at these n).
#include <cstdio>
#include <string>

#include "analysis/join_cost.h"
#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace hcube;
  const bench::Flags flags(
      argc, argv, {{"--n-lo", "N"}, {"--n-hi", "N"}, {"--n-step", "N"}});
  const auto n_lo = flags.u64("--n-lo", 10000);
  const auto n_hi = flags.u64("--n-hi", 100000);
  const auto n_step = flags.u64("--n-step", 10000);

  obs::BenchReport report("fig15a");
  report.param("n_lo", n_lo);
  report.param("n_hi", n_hi);
  report.param("n_step", n_step);

  struct Curve {
    std::uint64_t m;
    std::uint32_t d;
  };
  const Curve curves[] = {{500, 40}, {1000, 40}, {500, 8}, {1000, 8}};

  std::printf("# Figure 15(a): upper bound of E(J) per joining node "
              "(Theorem 5), b=16\n");
  std::printf("%10s", "n");
  for (const auto& c : curves)
    std::printf("  m=%-4llu d=%-2u", static_cast<unsigned long long>(c.m),
                c.d);
  std::printf("\n");

  for (std::uint64_t n = n_lo; n <= n_hi; n += n_step) {
    std::printf("%10llu", static_cast<unsigned long long>(n));
    for (const auto& c : curves) {
      const IdParams params{16, c.d};
      const double bound = expected_join_noti_concurrent_bound(params, n, c.m);
      std::printf("  %11.3f", bound);
      report.metrics().set_named(
          "ej_bound.m" + std::to_string(c.m) + ".d" + std::to_string(c.d) +
              ".n" + std::to_string(n),
          bound);
    }
    std::printf("\n");
  }

  // The two in-text reference points of Section 5.2.
  std::printf("\n# Section 5.2 reference points (b=16):\n");
  for (std::uint32_t d : {8u, 40u}) {
    const IdParams params{16, d};
    std::printf("  n=3096 m=1000 d=%-2u -> bound %.3f (paper: 8.001)\n", d,
                expected_join_noti_concurrent_bound(params, 3096, 1000));
    std::printf("  n=7192 m=1000 d=%-2u -> bound %.3f (paper: 6.986)\n", d,
                expected_join_noti_concurrent_bound(params, 7192, 1000));
  }
  bench::write_report(report);
  return 0;
}
