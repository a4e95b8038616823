// Experiment E9 — equilibrium churn: open-loop sustained turnover until
// the overlay saturates.
//
// The old closed-loop bench (join wave, then one leave at a time, each
// behind a quiescence barrier) measured per-operation cost but could not
// saturate anything: the barrier throttled the offered load to whatever the
// overlay could absorb. This rewrite drives the deterministic chaos engine
// in its open-loop equilibrium mode instead — seeded Poisson join/leave
// arrival processes at a configured rate, no quiescence anywhere before the
// final drain — and sweeps the rate upward until the saturation knee: the
// first rate whose join completion falls below the 0.99 floor (joins start
// burning their whole watchdog restart budget and abandon).
//
// Per swept rate r (leave rate = r/2, graceful degradation OFF) the bench
// reports, into BENCH_churn.json (hcube.bench.v1, hcstat-validated in CI):
//   eq.r<r>.completion_rate    joins completed / joins arrived
//   eq.r<r>.backlog_p99        p99 of the probed in-flight join backlog
//   eq.r<r>.join_p99_ms        p99 completion latency (spans restarts)
//   eq.r<r>.abandoned          joins that exhausted the restart budget
// plus the sweep verdicts:
//   eq.knee_rate               first rate below the completion floor
//   eq.sustained_rate          highest pre-knee rate
//   eq.sustained_completion_rate   completion at that rate, degradation ON
//   eq.backlog_p99             backlog p99 of the sustained run
//   eq.recovery_ms             post-spike backlog recovery (spike run)
// and the sustained run's full ChurnHealth ledger under churn.*.
//
// Guardrails (nonzero exit — CI's bench-trend row enforces them in quick
// mode):
//   * the sustained run, with degradation ON, must complete >= 0.99 of its
//     joins at the highest pre-knee rate, and
//   * two runs of that script must produce bit-identical digests — one of
//     them with an obs::JoinSpanTracer attached, so the determinism check
//     doubles as proof that observation does not perturb the run.
//
// Usage: bench_churn [--seed S] [--quick] [--rate-sweep]
//   --rate-sweep  is accepted for discoverability; the sweep is the only
//                 mode. --quick sweeps {2,4,8,16}/s over 4 steady windows
//                 (CI bench-trend); default {2,5,10,20,40}/s over 6.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "chaos/engine.h"
#include "chaos/schedule.h"
#include "obs/churn_health.h"
#include "obs/join_span.h"

namespace hcube::bench {
namespace {

constexpr double kCompletionFloor = 0.99;

chaos::EquilibriumSpec spec_for(double rate, std::uint32_t windows,
                                bool degrade, double spike_mult) {
  chaos::EquilibriumSpec spec;
  spec.rate_join = rate;
  spec.rate_leave = rate / 2.0;
  spec.steady_windows = windows;
  spec.spike_mult = spike_mult;
  spec.config = chaos::find_profile("equilibrium")->config;
  spec.config.degrade = degrade ? 1 : 0;
  return spec;
}

int main_impl(int argc, char** argv) {
  const Flags flags(
      argc, argv, {{"--quick"}, {"--seed", "S"}, {"--rate-sweep"}});
  const bool quick = flags.present("--quick");
  const std::uint64_t seed = flags.u64("--seed", 1);
  const std::uint32_t windows = quick ? 4 : 6;
  const std::vector<std::uint32_t> rates =
      quick ? std::vector<std::uint32_t>{2, 4, 8, 16}
            : std::vector<std::uint32_t>{2, 5, 10, 20, 40};

  std::printf(
      "churn: open-loop equilibrium sweep, seed=%llu, %u steady windows, "
      "leave rate = join rate / 2\n",
      static_cast<unsigned long long>(seed), windows);

  obs::BenchReport report("churn");
  report.param("quick", static_cast<std::uint64_t>(quick ? 1 : 0));
  report.param("seed", seed);
  report.param("windows", static_cast<std::uint64_t>(windows));
  auto& reg = report.metrics();

  // Phase 1 — saturation sweep, degradation OFF: where does the open loop
  // overwhelm the join protocol?
  double knee_rate = 0.0;
  double sustained_rate = 0.0;
  for (const std::uint32_t rate : rates) {
    const chaos::ChurnScript script = chaos::sample_equilibrium_script(
        seed, spec_for(rate, windows, /*degrade=*/false, /*spike_mult=*/0.0));
    const chaos::ChaosResult r = chaos::run_script(script);
    const double completion = r.eq.completion_rate();
    std::printf(
        "  r=%2u/s: completion %.4f, backlog p99 %.0f, join p99 %.0f ms, "
        "%llu abandoned%s\n",
        rate, completion, r.eq.backlog.quantile(0.99),
        r.eq.join_latency_ms.quantile(0.99),
        static_cast<unsigned long long>(r.eq.abandoned),
        completion < kCompletionFloor ? "  <-- saturated" : "");
    const std::string prefix = "eq.r" + std::to_string(rate);
    reg.set_named(prefix + ".completion_rate", completion);
    reg.set_named(prefix + ".backlog_p99", r.eq.backlog.quantile(0.99));
    reg.set_named(prefix + ".join_p99_ms",
                  r.eq.join_latency_ms.quantile(0.99));
    reg.set_named(prefix + ".abandoned", static_cast<double>(r.eq.abandoned));
    if (completion < kCompletionFloor) {
      if (knee_rate == 0.0) knee_rate = rate;
    } else {
      sustained_rate = rate;
    }
  }
  reg.set_named("eq.knee_rate", knee_rate);
  reg.set_named("eq.sustained_rate", sustained_rate);
  if (sustained_rate == 0.0) {
    write_report(report);
    std::fprintf(stderr,
                 "FAIL: even the lowest rate saturated — no sustainable "
                 "equilibrium point\n");
    return 1;
  }
  if (knee_rate > 0.0) {
    std::printf("  knee at %.0f/s; highest sustainable rate %.0f/s\n",
                knee_rate, sustained_rate);
  } else {
    std::printf("  no knee within the sweep; highest rate %.0f/s held\n",
                sustained_rate);
  }

  // Phase 2 — the sustained run: highest pre-knee rate with graceful
  // degradation ON, twice. Run A carries a JoinSpanTracer; run B is bare.
  // Identical digests prove both determinism and the no-perturbation
  // observation contract at once.
  const chaos::ChurnScript sustained_script = chaos::sample_equilibrium_script(
      seed, spec_for(sustained_rate, windows, /*degrade=*/true,
                     /*spike_mult=*/0.0));
  obs::JoinSpanTracer tracer;
  const chaos::ChaosResult run_a = chaos::run_script(
      sustained_script, [&tracer](Overlay& overlay) { tracer.attach(overlay); });
  const chaos::ChaosResult run_b = chaos::run_script(sustained_script);
  const double sustained_completion = run_a.eq.completion_rate();
  std::printf(
      "  sustained (degrade on, %.0f/s): completion %.4f, backlog p99 %.0f, "
      "digest %016llx\n",
      sustained_rate, sustained_completion, run_a.eq.backlog.quantile(0.99),
      static_cast<unsigned long long>(run_a.digest));
  reg.set_named("eq.sustained_completion_rate", sustained_completion);
  reg.set_named("eq.backlog_p99", run_a.eq.backlog.quantile(0.99));
  run_a.eq.export_to(reg);
  tracer.summary_to(reg);

  // Phase 3 — spike recovery: same sustained rate, one 3x rate spike, then
  // steady recovery windows; how long until the backlog is back to its
  // pre-spike baseline?
  const chaos::ChaosResult spiked = chaos::run_script(
      chaos::sample_equilibrium_script(
          seed, spec_for(sustained_rate, windows, /*degrade=*/true,
                         /*spike_mult=*/3.0)));
  std::printf("  spike 3x: recovery %.0f ms, completion %.4f\n",
              spiked.eq.recovery_ms, spiked.eq.completion_rate());
  reg.set_named("eq.recovery_ms", spiked.eq.recovery_ms);
  write_report(report);

  if (run_a.digest != run_b.digest) {
    std::fprintf(stderr,
                 "FAIL: sustained-run digests differ (%016llx vs %016llx) — "
                 "equilibrium runs must be bit-reproducible\n",
                 static_cast<unsigned long long>(run_a.digest),
                 static_cast<unsigned long long>(run_b.digest));
    return 1;
  }
  if (sustained_completion < kCompletionFloor) {
    std::fprintf(stderr,
                 "FAIL: completion %.4f below the %.2f floor at the "
                 "sustainable rate %.0f/s with degradation enabled\n",
                 sustained_completion, kCompletionFloor, sustained_rate);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace hcube::bench

int main(int argc, char** argv) { return hcube::bench::main_impl(argc, argv); }
