// Misbehaving-node tier, end to end: kMisbehave schedule steps round-trip
// through the text artifact form, the quarantine oracles hold the honest
// remainder to Definition 3.8 around stale-responders and reply-droppers
// under sustained churn (the ISSUE acceptance run), the ddmin shrinker
// minimizes adversary-bearing schedules without losing the failure, and
// the planet-scale profiles stay deterministic.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "chaos/adversary.h"
#include "chaos/engine.h"
#include "chaos/schedule.h"
#include "chaos/shrink.h"
#include "topology/latency.h"
#include "util/rng.h"

namespace hcube::chaos {
namespace {

ChurnStep step(StepKind kind, SimTime gap_ms, std::uint32_t id_index,
               std::uint64_t pick, SimTime duration_ms = 0.0) {
  ChurnStep s;
  s.kind = kind;
  s.gap_ms = gap_ms;
  s.id_index = id_index;
  s.pick = pick;
  s.duration_ms = duration_ms;
  return s;
}

TEST(AdversaryProfiles, BuiltinsResolveAndSampleMisbehaves) {
  ASSERT_NE(find_profile("adversary"), nullptr);
  ASSERT_NE(find_profile("flashcrowd"), nullptr);
  EXPECT_EQ(find_profile("adversary")->config.defend, 1u);
  EXPECT_EQ(find_profile("adversary")->config.latency_model, 1u);

  const ChurnScript script =
      sample_script(5, *find_profile("adversary"), 60);
  std::uint32_t misbehaves = 0;
  for (const ChurnStep& s : script.steps) {
    if (s.kind != StepKind::kMisbehave) continue;
    ++misbehaves;
    // The sampler draws only the two headline profiles, 2:1.
    EXPECT_TRUE(s.id_index == AdversaryEngine::kStaleTable ||
                s.id_index == AdversaryEngine::kReplyDropper);
  }
  EXPECT_GT(misbehaves, 0u);
}

TEST(AdversarySerialization, MisbehaveStepsAndConfigKeysRoundTrip) {
  ChurnScript script = sample_script(9, *find_profile("adversary"), 30);
  script.config.adv_drop_mask = AdversaryEngine::kDefaultDropMask;
  script.steps.insert(
      script.steps.begin(),
      step(StepKind::kMisbehave, 2.0, AdversaryEngine::kAllProfiles, 3, 55.0));

  std::string error;
  const auto parsed = ChurnScript::parse(script.serialize(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->serialize(), script.serialize());
  EXPECT_EQ(parsed->config.defend, 1u);
  EXPECT_EQ(parsed->config.adv_drop_mask, AdversaryEngine::kDefaultDropMask);
  EXPECT_EQ(parsed->config.latency_model, 1u);
  ASSERT_FALSE(parsed->steps.empty());
  EXPECT_EQ(parsed->steps[0].kind, StepKind::kMisbehave);
  EXPECT_EQ(parsed->steps[0].id_index, AdversaryEngine::kAllProfiles);
  EXPECT_EQ(parsed->steps[0].duration_ms, 55.0);
}

TEST(AdversarySerialization, PreAdversaryArtifactsParseWithDefaults) {
  // A replay artifact written before the misbehaving-node tier existed has
  // none of its config keys; it must parse to the documented defaults (tier
  // off, synthetic latency) — new keys are serializer-always,
  // parser-optional.
  const std::string old_form =
      "hchaos v1\n"
      "base 4\n"
      "digits 8\n"
      "nseed 12\n"
      "step join 5 0 3 0\n"
      "step barrier 5 0 0 0\n"
      "end\n";
  std::string error;
  const auto parsed = ChurnScript::parse(old_form, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->config.defend, 0u);
  EXPECT_EQ(parsed->config.adv_drop_mask, 0u);
  EXPECT_EQ(parsed->config.latency_model, 0u);
  // And the modern serialization of it round-trips.
  const auto again = ChurnScript::parse(parsed->serialize(), &error);
  ASSERT_TRUE(again.has_value()) << error;
  EXPECT_EQ(again->serialize(), parsed->serialize());
}

TEST(AdversarySerialization, SlowPeerDelayKeyIsReadAndDropped) {
  // Artifacts written while the slow-peer profile existed carry an
  // "advslow" line. It still parses, changes nothing, and is no longer
  // written back.
  const std::string with_slow =
      "hchaos v1\n"
      "nseed 12\n"
      "advdropmask 0\n"
      "advslow 40\n"
      "step join 5 0 3 0\n"
      "end\n";
  std::string error;
  const auto parsed = ChurnScript::parse(with_slow, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->config.n_seed, 12u);
  EXPECT_EQ(parsed->serialize().find("advslow"), std::string::npos);
  EXPECT_FALSE(ChurnScript::parse("hchaos v1\nadvslow x\nend\n", &error));
  EXPECT_NE(error.find("bad value for advslow"), std::string::npos) << error;
}

TEST(AdversarySerialization, MisbehaveMaskOutsideTheProfilesIsRejected) {
  // Bits 2 and 3 were the removed mute and slow-peer profiles; a step that
  // asks for one fails to parse instead of silently running without it.
  for (const std::uint32_t mask : {4u, 8u, 15u}) {
    const std::string text = "hchaos v1\nnseed 12\nstep misbehave 1 " +
                             std::to_string(mask) + " 0 0\nend\n";
    std::string error;
    EXPECT_FALSE(ChurnScript::parse(text, &error)) << mask;
    EXPECT_EQ(error, "line 3: misbehave mask " + std::to_string(mask) +
                         " has bits outside stale | dropper (3)");
  }
  std::string error;
  EXPECT_TRUE(ChurnScript::parse(
      "hchaos v1\nnseed 12\nstep misbehave 1 3 0 0\nend\n", &error))
      << error;
}

// The ISSUE acceptance run: a 30-node network where 10% of the settled
// nodes serve stale tables and 5% silently drop notification traffic,
// under sustained churn over planet latencies with the defensive hardening
// on, across three seeds. The quarantine oracles must pass at every
// barrier — the honest remainder reaches Definition 3.8 consistency and
// every honest join completes within its watchdog budget — and the run
// digest must be bit-reproducible, both re-run and through the
// serialize -> parse -> run artifact loop.
ChurnScript acceptance_script(std::uint64_t seed) {
  ChurnScript script;
  script.config.n_seed = 30;
  script.config.drop = 0.01;
  script.config.duplicate = 0.005;
  script.config.defend = 1;
  script.config.latency_model = 1;
  std::uint64_t sm = seed;
  script.config.id_seed = splitmix64_next(sm);
  script.config.latency_seed = splitmix64_next(sm);
  script.config.fault_seed = splitmix64_next(sm);

  // 10% stale responders + 5% reply-droppers of the 30 settled seeds.
  for (int i = 0; i < 3; ++i)
    script.steps.push_back(step(StepKind::kMisbehave, 5.0,
                                AdversaryEngine::kStaleTable, seed + i));
  for (int i = 0; i < 2; ++i)
    script.steps.push_back(step(StepKind::kMisbehave, 5.0,
                                AdversaryEngine::kReplyDropper, seed + 7 + i));
  // Sustained churn around them: joins, leaves, crashes, restarts, with a
  // barrier after each block of eight.
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
  std::uint32_t next_join = 0;
  for (int block = 0; block < 3; ++block) {
    for (int i = 0; i < 8; ++i) {
      const std::uint64_t draw = rng.next_below(8);
      StepKind kind = StepKind::kJoin;
      if (draw >= 4 && draw < 6) kind = StepKind::kLeave;
      if (draw == 6) kind = StepKind::kCrash;
      if (draw == 7) kind = StepKind::kRestart;
      ChurnStep s = step(kind, rng.next_exponential(25.0), 0, rng());
      if (kind == StepKind::kJoin) s.id_index = next_join++;
      script.steps.push_back(s);
    }
    script.steps.push_back(step(StepKind::kBarrier, 25.0, 0, 0));
  }
  return script;
}

TEST(QuarantineConvergence, HonestRemainderConvergesAcrossSeeds) {
  std::uint64_t total_intercepted = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const ChurnScript script = acceptance_script(seed);
    const ChaosResult result = run_script(script);
    EXPECT_TRUE(result.ok) << "seed " << seed << "\n" << result.summary();
    EXPECT_EQ(result.counts.misbehaves, 5u) << "seed " << seed;
    EXPECT_EQ(result.adversaries, 5u) << "seed " << seed;
    // Liveness around faults: no honest join burned its restart budget.
    EXPECT_EQ(result.abandoned_joins, 0u)
        << "seed " << seed << "\n" << result.summary();
    total_intercepted += result.adv_intercepted;

    // Bit-reproducible: re-run, and replay through the text artifact.
    const ChaosResult rerun = run_script(script);
    EXPECT_EQ(rerun.digest, result.digest) << "seed " << seed;
    std::string error;
    const auto parsed = ChurnScript::parse(script.serialize(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    const ChaosResult replayed = run_script(*parsed);
    EXPECT_EQ(replayed.digest, result.digest) << "seed " << seed;
  }
  // The tier genuinely fired somewhere across the sweep: marked nodes
  // intercepted real traffic, the runs were not vacuously clean.
  EXPECT_GT(total_intercepted, 0u);
}

// Shrinker fixture: every seed node swallows JoinWaitMsg, so the one join
// can never anchor its suffix class — the watchdog spends its budget and
// the barrier flags the abandoned *honest* join as a quarantine failure.
// ddmin must minimize the schedule without losing that failure, and the
// minimized artifact must replay to the identical digest.
ChurnScript dropper_wall_fixture() {
  ChurnScript script;
  script.config.n_seed = 16;
  script.config.drop = 0.0;       // clean transport: the droppers are
  script.config.duplicate = 0.0;  // provably the only source of silence
  script.config.adv_drop_mask =
      1u << static_cast<std::uint32_t>(MessageType::kJoinWait);
  script.config.join_watchdog_ms = 2000.0;
  script.config.join_max_restarts = 3;
  // pick = 0 resolves against the *unmarked* settled population, so step k
  // marks the k-th seed in registration order — any subset of these steps
  // marks a prefix-of-a-subset deterministically, which keeps ddmin sound.
  for (int i = 0; i < 16; ++i)
    script.steps.push_back(
        step(StepKind::kMisbehave, 1.0, AdversaryEngine::kReplyDropper, 0));
  script.steps.push_back(step(StepKind::kJoin, 10.0, 0, 5));
  script.steps.push_back(step(StepKind::kBarrier, 10.0, 0, 0));
  return script;
}

TEST(AdversaryShrink, MinimizedScheduleStillFailsQuarantineOracle) {
  const ChurnScript fixture = dropper_wall_fixture();
  const ChaosResult broken = run_script(fixture);
  ASSERT_FALSE(broken.ok) << broken.summary();
  EXPECT_EQ(broken.abandoned_joins, 1u);
  EXPECT_NE(broken.first_failure().find("quarantine"), std::string::npos)
      << broken.first_failure();

  const ShrinkResult shrunk = shrink_script(fixture);
  EXPECT_TRUE(shrunk.input_failed);
  EXPECT_FALSE(shrunk.minimal_result.ok);
  // The join and at least one misbehave marking must have survived — a
  // schedule without either passes.
  EXPECT_LT(shrunk.minimal.steps.size(), fixture.steps.size());
  std::uint32_t joins = 0, misbehaves = 0;
  for (const ChurnStep& s : shrunk.minimal.steps) {
    if (s.kind == StepKind::kJoin) ++joins;
    if (s.kind == StepKind::kMisbehave) ++misbehaves;
  }
  EXPECT_EQ(joins, 1u);
  EXPECT_GE(misbehaves, 1u);

  // Artifact loop: the minimized schedule replays bit-for-bit.
  std::string error;
  const auto parsed = ChurnScript::parse(shrunk.minimal.serialize(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  const ChaosResult replayed = run_script(*parsed);
  EXPECT_FALSE(replayed.ok);
  EXPECT_EQ(replayed.digest, shrunk.minimal_result.digest);
  EXPECT_EQ(replayed.first_failure(), shrunk.minimal_result.first_failure());
}

TEST(FlashCrowd, QuickModeConvergesClean) {
  // The CI chaos-matrix quick mode: 32 joins (m = 4·n_seed) flooding an
  // 8-node overlay over planet latencies.
  const ChurnScript script =
      sample_script(2, *find_profile("flashcrowd"), 32);
  EXPECT_EQ(script.config.n_seed, 8u);
  const ChaosResult result = run_script(script);
  EXPECT_TRUE(result.ok) << result.summary();
  EXPECT_EQ(result.counts.joins, 32u);
  EXPECT_EQ(run_script(script).digest, result.digest);
}

TEST(PlanetLatency, DeterministicSymmetricAndRegionClustered) {
  PlanetLatency a(64, 11), b(64, 11), other(64, 12);
  double intra_max = 0.0;
  for (HostId x = 0; x < 16; ++x) {
    for (HostId y = 0; y < 16; ++y) {
      if (x == y) {
        EXPECT_EQ(a.latency_ms(x, y), 0.0);
        continue;
      }
      const double ms = a.latency_ms(x, y);
      EXPECT_GT(ms, 0.0);
      EXPECT_EQ(ms, a.latency_ms(y, x));  // symmetric, bit for bit
      EXPECT_EQ(ms, b.latency_ms(x, y));  // pure function of the seed
      if (a.region_of(x) == a.region_of(y))
        intra_max = std::max(intra_max, ms);
    }
  }
  // The map is strongly bimodal: the farthest same-region pair is still
  // bounded by access jitter + intra-region base, far below the antipodal
  // bases; a uniform band (SyntheticLatency) has no such gap.
  EXPECT_LT(intra_max, 40.0);
  // Distinct seeds remap the planet.
  bool any_differs = false;
  for (HostId x = 1; x < 16 && !any_differs; ++x)
    any_differs = other.latency_ms(0, x) != a.latency_ms(0, x);
  EXPECT_TRUE(any_differs);
}

}  // namespace
}  // namespace hcube::chaos
