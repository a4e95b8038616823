// Differential determinism of the sharded simulator (DESIGN.md §16).
//
// The chaos engine's digest is a fold over the run's complete observable
// history — event counts, traffic totals, fault accounting, membership
// outcome, every oracle verdict with its timestamp, and (for rate-step
// scripts) the whole equilibrium ledger. The sharded driver's claim is that
// this history is a pure function of the script, independent of the shard
// count: any K > 1 must reproduce the K = 1 digest bit for bit, along with
// the identical hcube.metrics.v1 JSON after the per-lane counter stripes
// merge.
//
// K = 1 is the same driver on one lane, but it still differs in structure
// from K > 1: its lane is a standalone transport with no routes, outboxes
// or ack receipts, the Overlay talks to the lane's reliable layer with no
// facade in between, and the driver runs the lane straight to each action
// with no epochs. What ties K = 1 itself to a fixed reference are the
// digest pins (tests/chaos/digest_pin_test.cpp), computed on the old
// single-queue runner.
//
// Three script classes cover the regimes the engine has: fail-stop churn
// with partition windows (the original tier), adversary-profile churn with
// the defensive hardening on (misbehave markings, planet latency), and an
// open-loop equilibrium run with rate windows, a spike, and steady-state
// probes. All three are run with drop = dup = 0 — the one fault family the
// sharded engine rejects by contract, since a shared probabilistic RNG
// stream has no canonical order across lanes (chaos/schedule.h, `shards`).
//
// The cross_shard_messages assertion keeps the test honest: a run whose
// hosts all hashed onto one lane would pass the digest check vacuously, so
// every K > 1 run must prove it actually exercised the outbox path.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "chaos/engine.h"
#include "chaos/schedule.h"
#include "obs/collect.h"
#include "obs/metrics.h"

namespace hcube::chaos {
namespace {

std::string metrics_json(const ChaosResult& result) {
  obs::MetricsRegistry reg;
  obs::collect_counters(result, reg);
  return reg.to_json();
}

// Runs the script at K = 1 (one lane) and K in {2, 4, 8},
// asserting bit-identical digests, identical merged metrics JSON, and a
// genuinely exercised cross-shard path.
void expect_shard_invariant(ChurnScript script, const char* label) {
  script.config.shards = 1;
  const ChaosResult ref = run_script(script);
  const std::string ref_json = metrics_json(ref);
  EXPECT_EQ(ref.shards, 1u);
  EXPECT_EQ(ref.cross_shard_messages, 0u);
  for (std::uint32_t k : {2u, 4u, 8u}) {
    script.config.shards = k;
    const ChaosResult run = run_script(script);
    EXPECT_EQ(run.digest, ref.digest)
        << label << " K=" << k << ": got 0x" << std::hex << run.digest
        << ", K=1 0x" << ref.digest;
    EXPECT_EQ(metrics_json(run), ref_json) << label << " K=" << k;
    EXPECT_EQ(run.shards, k) << label;
    EXPECT_GT(run.cross_shard_messages, 0u)
        << label << " K=" << k
        << ": no cross-shard traffic — the digest check proved nothing";
    // The structured outcome matches too, not just its hash.
    EXPECT_EQ(run.ok, ref.ok) << label << " K=" << k;
    EXPECT_EQ(run.barriers.size(), ref.barriers.size()) << label;
    EXPECT_EQ(run.settled, ref.settled) << label << " K=" << k;
    EXPECT_EQ(run.events, ref.events) << label << " K=" << k;
  }
}

// Lossless variant of a sampled profile script: the shard contract forbids
// probabilistic drop/duplicate streams, so the differential runs disable
// them (at every K — the digest comparison needs identical configs).
ChurnScript lossless(ChurnScript script) {
  script.config.drop = 0.0;
  script.config.duplicate = 0.0;
  return script;
}

TEST(ShardDeterminism, FailStopChurnWithPartitions) {
  const ChurnProfile* profile = find_profile("partition");
  ASSERT_NE(profile, nullptr);
  expect_shard_invariant(lossless(sample_script(11, *profile, 32)),
                         "partition");
}

TEST(ShardDeterminism, MixedChurn) {
  const ChurnProfile* profile = find_profile("mixed");
  ASSERT_NE(profile, nullptr);
  expect_shard_invariant(lossless(sample_script(3, *profile, 32)), "mixed");
}

TEST(ShardDeterminism, AdversaryProfile) {
  const ChurnProfile* profile = find_profile("adversary");
  ASSERT_NE(profile, nullptr);
  expect_shard_invariant(lossless(sample_script(7, *profile, 32)),
                         "adversary");
}

TEST(ShardDeterminism, EquilibriumRateWindowsWithSpike) {
  EquilibriumSpec spec;
  spec.rate_join = 12.0;
  spec.rate_leave = 6.0;
  spec.window_ms = 800.0;
  spec.ramp_windows = 1;
  spec.steady_windows = 2;
  spec.spike_mult = 3.0;
  spec.recovery_windows = 1;
  ChurnScript script = sample_equilibrium_script(5, spec);
  ASSERT_TRUE(script.has_rate_steps());
  expect_shard_invariant(lossless(std::move(script)), "equilibrium");
}

// Repeating the same sharded run must also be self-identical (thread
// scheduling must not leak into the result): two K=4 executions of one
// script, same digest. This is weaker than the differential checks above
// but fails with a clearer message when nondeterminism is *internal* to
// the sharded engine rather than a divergence from K = 1.
TEST(ShardDeterminism, ShardedRunIsSelfReproducible) {
  const ChurnProfile* profile = find_profile("mixed");
  ASSERT_NE(profile, nullptr);
  ChurnScript script = lossless(sample_script(9, *profile, 24));
  script.config.shards = 4;
  const ChaosResult a = run_script(script);
  const ChaosResult b = run_script(script);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.cross_shard_messages, b.cross_shard_messages);
}

// The `shards` config key round-trips through the replay artifact, so a
// failing sharded CI run replays in the same mode.
TEST(ShardDeterminism, ShardCountSerializes) {
  const ChurnProfile* profile = find_profile("mixed");
  ASSERT_NE(profile, nullptr);
  ChurnScript script = lossless(sample_script(2, *profile, 8));
  script.config.shards = 4;
  const std::string text = script.serialize();
  std::string error;
  const auto parsed = ChurnScript::parse(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->config.shards, 4u);
  EXPECT_EQ(parsed->serialize(), text);
}

}  // namespace
}  // namespace hcube::chaos
