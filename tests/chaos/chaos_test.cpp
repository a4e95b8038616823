// End-to-end tests of the deterministic chaos engine (src/chaos/): schedule
// sampling and serialization, mixed-churn convergence under the invariant
// oracles, bit-reproducibility, and the shrink -> serialize -> replay loop
// on a deliberately broken fixture.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/engine.h"
#include "chaos/oracles.h"
#include "chaos/schedule.h"
#include "chaos/shrink.h"
#include "test_util.h"

namespace hcube::chaos {
namespace {

TEST(Profiles, BuiltinsResolveByName) {
  ASSERT_FALSE(profiles().empty());
  EXPECT_NE(find_profile("mixed"), nullptr);
  EXPECT_NE(find_profile("partition"), nullptr);
  EXPECT_EQ(find_profile("no-such-profile"), nullptr);
}

TEST(Sampler, IsDeterministicAndEndsWithBarrier) {
  const ChurnProfile& mixed = *find_profile("mixed");
  const ChurnScript a = sample_script(7, mixed, 30);
  const ChurnScript b = sample_script(7, mixed, 30);
  EXPECT_EQ(a.serialize(), b.serialize());
  ASSERT_FALSE(a.steps.empty());
  EXPECT_EQ(a.steps.back().kind, StepKind::kBarrier);
  // A different seed yields a different schedule.
  EXPECT_NE(a.serialize(), sample_script(8, mixed, 30).serialize());
}

TEST(Serialization, RoundTripsExactly) {
  const ChurnScript script = sample_script(11, *find_profile("partition"), 25);
  std::string error;
  const auto parsed = ChurnScript::parse(script.serialize(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->serialize(), script.serialize());
  EXPECT_EQ(parsed->steps.size(), script.steps.size());
  EXPECT_EQ(parsed->config.n_seed, script.config.n_seed);
  EXPECT_EQ(parsed->config.heal_rounds, script.config.heal_rounds);
}

TEST(Serialization, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(ChurnScript::parse("not a schedule", &error).has_value());
  EXPECT_FALSE(error.empty());

  // Truncation (missing "end" terminator) must not parse as a valid script.
  std::string text = sample_script(1, *find_profile("mixed"), 10).serialize();
  text.resize(text.rfind("end"));
  EXPECT_FALSE(ChurnScript::parse(text, &error).has_value());

  // Unknown step kind.
  EXPECT_FALSE(
      ChurnScript::parse("hchaos v1\nstep frobnicate 1 0 0 0\nend\n", &error)
          .has_value());

  // A shards line the engine cannot run: several lanes under a
  // probabilistic fault stream (mixed drops 2%), or more lanes than there
  // can be.
  ChurnScript lanes = sample_script(1, *find_profile("mixed"), 10);
  lanes.config.shards = 2;
  EXPECT_FALSE(ChurnScript::parse(lanes.serialize(), &error).has_value());
  EXPECT_NE(error.find("requires drop = dup = 0"), std::string::npos) << error;
  lanes.config.drop = 0.0;
  lanes.config.duplicate = 0.0;
  lanes.config.shards = 99;
  EXPECT_FALSE(ChurnScript::parse(lanes.serialize(), &error).has_value());
  EXPECT_NE(error.find("exceeds the 16-lane maximum"), std::string::npos)
      << error;
  lanes.config.shards = 16;
  EXPECT_TRUE(ChurnScript::parse(lanes.serialize(), &error).has_value())
      << error;
}

// The ISSUE acceptance run: >= 3 seeds of mixed churn — joins, leaves,
// crashes, restarts, and at least one partition window per run — ending
// with every oracle clean (Definition 3.8 consistency over the settled
// membership, reverse-neighbor symmetry, liveness, zero leaked join state,
// transport layering).
TEST(MixedChurn, ConvergesCleanAcrossSeeds) {
  StepCounts total;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    ChurnScript script = sample_script(seed, *find_profile("mixed"), 28);
    // Guarantee one partition window per run regardless of what the sampler
    // drew: splice it in early so later churn overlaps the cut.
    ChurnStep cut;
    cut.kind = StepKind::kPartition;
    cut.gap_ms = 5.0;
    cut.pick = seed * 1000003ULL + 17;
    cut.duration_ms = 800.0;
    script.steps.insert(script.steps.begin() + 1, cut);

    const ChaosResult result = run_script(script);
    EXPECT_TRUE(result.ok) << "seed " << seed << "\n" << result.summary();
    ASSERT_FALSE(result.barriers.empty());
    EXPECT_TRUE(result.barriers.back().ok());
    EXPECT_GE(result.counts.partitions, 1u) << "seed " << seed;
    EXPECT_GT(result.faults_injected, 0u) << "seed " << seed;
    total.joins += result.counts.joins;
    total.leaves += result.counts.leaves;
    total.crashes += result.counts.crashes;
    total.restarts += result.counts.restarts;
    total.partitions += result.counts.partitions;
  }
  // Across the three seeds every churn kind must actually have fired.
  EXPECT_GT(total.joins, 0u);
  EXPECT_GT(total.leaves, 0u);
  EXPECT_GT(total.crashes, 0u);
  EXPECT_GT(total.restarts, 0u);
  EXPECT_GE(total.partitions, 3u);
}

// Bit-reproducibility: the engine is a pure function of the script, so two
// executions agree on every counter, every verdict, and the folded digest.
TEST(Determinism, SameScriptSameDigest) {
  const ChurnScript script = sample_script(3, *find_profile("partition"), 40);
  const ChaosResult a = run_script(script);
  const ChaosResult b = run_script(script);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.ok, b.ok);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.partition_drops, b.partition_drops);
  ASSERT_EQ(a.barriers.size(), b.barriers.size());
  for (std::size_t i = 0; i < a.barriers.size(); ++i) {
    EXPECT_EQ(a.barriers[i].at_ms, b.barriers[i].at_ms);
    EXPECT_EQ(a.barriers[i].failures, b.barriers[i].failures);
  }
}

// Oracles directly: a consistent network passes; crashing a node without
// running repair leaves dangling references the consistency oracle flags.
TEST(Oracles, DetectUnrepairedCrashDamage) {
  const IdParams params{16, 8};
  testing::World world(params, 16);
  const auto ids = testing::make_ids(params, 16, 21);
  build_consistent_network(world.overlay, ids);
  EXPECT_TRUE(run_oracles(world.overlay).ok());

  world.crash(ids[5]);
  const OracleReport damaged = run_oracles(world.overlay);
  EXPECT_FALSE(damaged.ok());

  // Repair reclaims the dangling entries; the oracles go clean again.
  world.repair_all();
  EXPECT_TRUE(run_oracles(world.overlay).ok()) << run_oracles(world.overlay)
                                                      .failures.front();
}

// The deliberately seeded bug fixture of the ISSUE: heal_rounds = 0 turns
// barrier-time repair off, so a crash leaves dangling neighbors and the
// consistency oracle fails. The shrinker must reduce the noisy schedule to
// the one step that matters, and the serialized artifact must replay to the
// same failure.
ChurnScript broken_fixture() {
  ChurnScript script;
  script.config.n_seed = 16;
  script.config.heal_rounds = 0;  // the seeded bug: barriers never repair
  script.config.drop = 0.0;       // keep the transport clean so the crash is
  script.config.duplicate = 0.0;  // provably the only source of damage
  auto step = [](StepKind kind, std::uint32_t id_index, std::uint64_t pick) {
    ChurnStep s;
    s.kind = kind;
    s.gap_ms = 10.0;
    s.id_index = id_index;
    s.pick = pick;
    return s;
  };
  script.steps = {
      step(StepKind::kJoin, 0, 7),   step(StepKind::kJoin, 1, 13),
      step(StepKind::kBarrier, 0, 0), step(StepKind::kLeave, 0, 21),
      step(StepKind::kCrash, 0, 5),  step(StepKind::kJoin, 2, 31),
      step(StepKind::kBarrier, 0, 0),
  };
  return script;
}

TEST(ShrinkAndReplay, MinimizedScheduleReproducesTheFailure) {
  const ChurnScript fixture = broken_fixture();
  ASSERT_FALSE(run_script(fixture).ok)
      << "fixture is supposed to fail the consistency oracle";

  const ShrinkResult shrunk = shrink_script(fixture);
  EXPECT_TRUE(shrunk.input_failed);
  EXPECT_FALSE(shrunk.minimal_result.ok);
  EXPECT_GT(shrunk.runs, 0u);
  // With a clean transport and graceful leaves, the crash is the only step
  // able to break consistency — ddmin's 1-minimal schedule is exactly it.
  ASSERT_EQ(shrunk.minimal.steps.size(), 1u);
  EXPECT_EQ(shrunk.minimal.steps[0].kind, StepKind::kCrash);

  // Artifact loop: serialize -> parse -> run reproduces the failure bit for
  // bit (same digest, same first failing oracle line).
  std::string error;
  const auto parsed = ChurnScript::parse(shrunk.minimal.serialize(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const ChaosResult replayed = run_script(*parsed);
  EXPECT_FALSE(replayed.ok);
  EXPECT_EQ(replayed.digest, shrunk.minimal_result.digest);
  EXPECT_EQ(replayed.first_failure(), shrunk.minimal_result.first_failure());
}

TEST(Shrink, PassingInputIsReturnedUnshrunk) {
  ChurnScript script = broken_fixture();
  script.config.heal_rounds = 2;  // repair on: the same schedule passes
  ASSERT_TRUE(run_script(script).ok);
  const ShrinkResult result = shrink_script(script);
  EXPECT_FALSE(result.input_failed);
  EXPECT_EQ(result.minimal.steps.size(), script.steps.size());
}

}  // namespace
}  // namespace hcube::chaos
