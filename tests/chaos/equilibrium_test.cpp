// Equilibrium-churn tier: open-loop rate windows, steady-state health
// oracles, and graceful degradation.
//
// The properties pinned here:
//   * rate-window scripts serialize/parse losslessly (the replay contract
//     extends to the new step kinds and config keys),
//   * window_arrivals is a pure function of the step alone (the shrink-
//     soundness property for rate windows),
//   * a moderate-rate equilibrium run passes every steady-state and drain
//     oracle, and is bit-reproducible with degradation enabled — the
//     backoff jitter draws from the overlay's seeded stream, never a fresh
//     one,
//   * the quarantine oracles hold through equilibrium with a 10%
//     reply-dropper population,
//   * a spike's backlog recovery lands within a stated budget, and
//   * the backlog bound oracle actually bites when set absurdly low.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "chaos/adversary.h"
#include "chaos/engine.h"
#include "chaos/schedule.h"
#include "core/builder.h"
#include "core/overlay.h"
#include "ids/node_id.h"
#include "test_util.h"

namespace hcube::chaos {
namespace {

EquilibriumSpec moderate_spec() {
  EquilibriumSpec spec;
  spec.rate_join = 4.0;
  spec.rate_leave = 2.0;
  spec.steady_windows = 3;
  spec.config = find_profile("equilibrium")->config;
  return spec;
}

TEST(EquilibriumSchedule, SerializationRoundTripsRateWindows) {
  EquilibriumSpec spec = moderate_spec();
  spec.spike_mult = 3.0;
  const ChurnScript script = sample_equilibrium_script(7, spec);
  ASSERT_TRUE(script.has_rate_steps());

  const std::string text = script.serialize();
  std::string error;
  const auto parsed = ChurnScript::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->serialize(), text);
  EXPECT_EQ(parsed->config.degrade, script.config.degrade);
  EXPECT_EQ(parsed->config.max_backlog, script.config.max_backlog);
  EXPECT_EQ(parsed->config.probe_every_ms, script.config.probe_every_ms);
  ASSERT_EQ(parsed->steps.size(), script.steps.size());
  bool saw_spike = false;
  for (std::size_t i = 0; i < script.steps.size(); ++i) {
    EXPECT_EQ(parsed->steps[i].kind, script.steps[i].kind);
    EXPECT_EQ(parsed->steps[i].rate_join, script.steps[i].rate_join);
    EXPECT_EQ(parsed->steps[i].rate_leave, script.steps[i].rate_leave);
    saw_spike = saw_spike || script.steps[i].kind == StepKind::kSpike;
  }
  EXPECT_TRUE(saw_spike);

  // A rate line without its two trailing rate fields must be rejected, not
  // silently defaulted — the artifact would replay a different world.
  const std::size_t at = text.find("step rate ");
  ASSERT_NE(at, std::string::npos);
  const std::size_t eol = text.find('\n', at);
  std::string line = text.substr(at, eol - at);
  for (int drop = 0; drop < 2; ++drop)
    line = line.substr(0, line.find_last_of(' '));
  const std::string damaged =
      text.substr(0, at) + line + text.substr(eol);
  EXPECT_FALSE(ChurnScript::parse(damaged).has_value());
}

TEST(EquilibriumSchedule, WindowArrivalsArePureAndPoolDisjoint) {
  const ChurnScript script = sample_equilibrium_script(3, moderate_spec());
  std::uint32_t max_pool = 0;
  std::uint32_t rate_steps = 0;
  for (const ChurnStep& step : script.steps) {
    if (!is_rate_window(step.kind)) continue;
    ++rate_steps;
    const auto a = window_arrivals(step);
    const auto b = window_arrivals(step);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].at_ms, b[i].at_ms);
      EXPECT_EQ(a[i].is_join, b[i].is_join);
      EXPECT_EQ(a[i].join_ordinal, b[i].join_ordinal);
      EXPECT_EQ(a[i].pick, b[i].pick);
    }
    // Join ordinals are dense from 0, arrivals are time-ordered, and the
    // window's ID allotment starts past every earlier window's.
    std::uint32_t joins = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i > 0) {
        EXPECT_GE(a[i].at_ms, a[i - 1].at_ms);
      }
      EXPECT_LT(a[i].at_ms, step.duration_ms);
      if (a[i].is_join) {
        EXPECT_EQ(a[i].join_ordinal, joins++);
      }
    }
    EXPECT_EQ(joins, window_join_count(step));
    EXPECT_GE(step.id_index, max_pool);
    max_pool = step.id_index + joins;
  }
  EXPECT_GT(rate_steps, 0u);
  EXPECT_GE(script.num_join_ids(), max_pool);
}

TEST(EquilibriumRun, ModerateRatePassesSteadyStateAndDrainOracles) {
  const ChaosResult r =
      run_script(sample_equilibrium_script(1, moderate_spec()));
  EXPECT_TRUE(r.ok) << r.first_failure();
  EXPECT_GT(r.eq.probes, 0u);
  EXPECT_GT(r.eq.join_arrivals, 0u);
  EXPECT_GT(r.eq.leave_arrivals, 0u);
  EXPECT_GT(r.eq.completed, 0u);
  EXPECT_GE(r.eq.completion_rate(), 0.99);
  EXPECT_EQ(r.eq.backlog.count(), r.eq.probes);
}

TEST(EquilibriumRun, DegradationRunsAreBitReproducible) {
  // The satellite contract: same seed + rates => bit-identical digest, with
  // the degradation machinery (jittered backoff, admission deferral) on.
  // Holding this proves the jitter draws from the overlay's seeded stream —
  // any unseeded randomness would diverge the two worlds.
  EquilibriumSpec spec = moderate_spec();
  spec.rate_join = 8.0;  // hot enough that watchdog restarts actually fire
  spec.rate_leave = 4.0;
  spec.config.degrade = 1;
  const ChurnScript script = sample_equilibrium_script(5, spec);
  const ChaosResult a = run_script(script);
  const ChaosResult b = run_script(script);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.eq.completed, b.eq.completed);
  EXPECT_EQ(a.eq.probes, b.eq.probes);
  // And the digest is sensitive to the seed (the fold is not vacuous).
  EXPECT_NE(a.digest, run_script(sample_equilibrium_script(6, spec)).digest);
}

TEST(EquilibriumRun, QuarantineOraclesHoldUnderReplyDroppers) {
  // 10% of the seed population swallows protocol replies. With the
  // defensive hardening on (the equilibrium profile's default), honest
  // joins must keep completing and every barrier/probe oracle must excuse
  // exactly the marked set — no false alarms, no honest-liveness loss.
  EquilibriumSpec spec = moderate_spec();
  ChurnScript script = sample_equilibrium_script(2, spec);
  const auto k = static_cast<std::size_t>(spec.config.n_seed / 10);
  ASSERT_GT(k, 0u);
  std::vector<ChurnStep> steps;
  for (std::size_t i = 0; i < k; ++i) {
    steps.push_back({.kind = StepKind::kMisbehave,
                     .gap_ms = 1.0,
                     .id_index = AdversaryEngine::kReplyDropper,
                     .pick = i,
                     .duration_ms = 0.0});
  }
  steps.insert(steps.end(), script.steps.begin(), script.steps.end());
  script.steps = std::move(steps);
  const ChaosResult r = run_script(script);
  EXPECT_TRUE(r.ok) << r.first_failure();
  EXPECT_EQ(r.counts.misbehaves, k);
  EXPECT_GT(r.eq.completed, 0u);
}

TEST(EquilibriumRun, SpikeRecoveryWithinBudget) {
  // Budget: after a 3x rate spike at a comfortably sub-knee rate, the
  // backlog must return to its pre-spike baseline within two join-watchdog
  // periods (2 x 2000ms) of the spike window closing. The measured values
  // sit around one probe period (250ms); the budget leaves deterministic
  // headroom, not slack for nondeterminism — the run is seeded.
  EquilibriumSpec spec = moderate_spec();
  spec.spike_mult = 3.0;
  const ChaosResult r = run_script(sample_equilibrium_script(1, spec));
  EXPECT_TRUE(r.ok) << r.first_failure();
  ASSERT_GE(r.eq.recovery_ms, 0.0) << "backlog never returned to baseline";
  EXPECT_LE(r.eq.recovery_ms, 2.0 * spec.config.join_watchdog_ms);
}

TEST(EquilibriumRun, BacklogBoundOracleBites) {
  // An absurdly low bound must trip the steady-state probe oracle: this is
  // the oracle's smoke test, proving equilibrium failures are detectable
  // mid-run rather than only at the drain.
  EquilibriumSpec spec = moderate_spec();
  spec.rate_join = 12.0;
  spec.rate_leave = 6.0;
  spec.config.max_backlog = 1;
  const ChaosResult r = run_script(sample_equilibrium_script(1, spec));
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.first_failure().find("backlog"), std::string::npos)
      << r.first_failure();
}

TEST(EquilibriumOverlay, JoinBacklogCounterTracksJoinLifecycle) {
  const IdParams params{16, 8};
  testing::World world(params, 20, {}, /*latency_seed=*/1);
  Overlay& overlay = world.overlay;
  UniqueIdGenerator gen(params, 9);
  std::vector<NodeId> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(gen.next());
  build_consistent_network(overlay, ids);
  EXPECT_EQ(overlay.join_backlog(), 0u);

  const NodeId joiner = gen.next();
  overlay.add_node(joiner).start_join(ids[0]);
  EXPECT_EQ(overlay.join_backlog(), 1u);
  world.drain();
  EXPECT_EQ(overlay.join_backlog(), 0u);
  EXPECT_TRUE(overlay.at(joiner).is_s_node());

  // Departures never touch the join backlog.
  leave_and_drain(world, joiner);
  EXPECT_EQ(overlay.join_backlog(), 0u);
}

TEST(EquilibriumOverlay, GatewayDefersAdmissionAboveBacklogThreshold) {
  // Load-shedding leg of graceful degradation: with the overlay-wide join
  // backlog above the threshold, a settled gateway defers its CpRly by
  // overload_defer_ms instead of answering immediately. Three simultaneous
  // joins against a threshold of 1 must record deferrals on the gateways —
  // and deferral is deferral, not denial: every join still completes.
  const IdParams params{16, 8};
  ProtocolOptions options;
  options.overload_defer_threshold = 1;
  testing::World world(params, 20, options, /*latency_seed=*/1);
  Overlay& overlay = world.overlay;
  UniqueIdGenerator gen(params, 11);
  std::vector<NodeId> ids;
  for (int i = 0; i < 12; ++i) ids.push_back(gen.next());
  build_consistent_network(overlay, ids);

  std::vector<NodeId> joiners;
  for (int i = 0; i < 3; ++i) joiners.push_back(gen.next());
  for (std::size_t i = 0; i < joiners.size(); ++i)
    overlay.add_node(joiners[i]).start_join(ids[i]);
  EXPECT_EQ(overlay.join_backlog(), 3u);
  world.drain();

  EXPECT_GT(overlay.join_counters().admission_deferrals, 0u);
  for (const NodeId& id : joiners) {
    EXPECT_TRUE(overlay.at(id).is_s_node())
        << id.to_string(params) << " did not complete";
  }
}

TEST(EquilibriumOverlay, WatchdogRestartsWaitOutJitteredBackoff) {
  // Backoff leg: with join_backoff_base_ms set, every watchdog-driven
  // restart first waits out a jittered exponential delay (counted in
  // Overlay::JoinCounters::backoff_waits). A crashed gateway never answers,
  // so the joiner burns its whole restart budget — one backoff wait per
  // restart — and backoff time is not attempt time: the restarts land
  // strictly later than the undegraded watchdog cadence alone would put
  // them.
  const IdParams params{16, 8};
  ProtocolOptions options;
  options.join_watchdog_ms = 500.0;
  options.join_max_restarts = 2;
  options.join_backoff_base_ms = 100.0;
  testing::World world(params, 12, options, /*latency_seed=*/1);
  Overlay& overlay = world.overlay;
  UniqueIdGenerator gen(params, 13);
  std::vector<NodeId> ids;
  for (int i = 0; i < 8; ++i) ids.push_back(gen.next());
  build_consistent_network(overlay, ids);
  overlay.at(ids[0]).mark_crashed();

  const NodeId joiner = gen.next();
  overlay.add_node(joiner).start_join(ids[0]);
  world.drain();

  EXPECT_EQ(overlay.at(joiner).join_stats().watchdog_restarts, 2u);
  EXPECT_EQ(overlay.join_counters().backoff_waits, 2u);
  // 2 watchdog periods + backoff waits of >= 0.5 * 100ms and >= 0.5 * 200ms
  // + the final (budget-exhausted) watchdog period.
  EXPECT_GE(world.now(), 3 * 500.0 + 0.5 * 100.0 + 0.5 * 200.0);
}

TEST(EquilibriumOverlay, BackoffJitterStreamIsSeededPerOverlay) {
  const IdParams params{16, 8};
  ProtocolOptions options;
  testing::World a(params, 4, options);
  testing::World b(params, 4, options);
  options.backoff_seed ^= 0x1234;
  testing::World c(params, 4, options);
  bool diverged = false;
  for (int i = 0; i < 16; ++i) {
    const double ja = a.overlay.backoff_jitter();
    EXPECT_GE(ja, 0.5);
    EXPECT_LT(ja, 1.5);
    EXPECT_EQ(ja, b.overlay.backoff_jitter());  // same seed, same stream
    diverged = diverged || ja != c.overlay.backoff_jitter();
  }
  EXPECT_TRUE(diverged);  // different seed, different stream
}

}  // namespace
}  // namespace hcube::chaos
