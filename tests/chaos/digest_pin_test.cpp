// Pinned chaos digests: the engine is a pure function of (seed, profile,
// steps), so these exact FNV-1a folds must reproduce on every build. A
// mismatch means event ordering changed somewhere — a new container with a
// different iteration order, a scheduling tweak, a protocol edit — and is
// either a bug or a deliberate change that must re-pin these constants and
// say so in its change notes.
//
// Current values date from the removal of the adversary's slow-peer
// profile: its `delayed` counter, always 0 because no sampler, CLI or
// bench marks a slow peer, was the last value the digest folded and is no
// longer folded. No run changed: a build that folds a constant 0 in its
// place reproduces every previous pin, and hchaos prints the same output
// apart from the dropped "0 delayed" field.
//
// Previous re-pin: the event-free ARQ clean path. Acks are settled at
// their data's delivery instead of delivered as events, and a
// retransmission timer is armed only for a deadline that will fire (each
// message at its own deadline, where the old per-pair timer could hold a
// fresh message back to a backed-off one). The digest folds the event
// count, which lost every ack delivery and stale timer; and quiescence no
// longer waits for stale timers, so the runner, which places each step at
// max(cursor, sim_now()) + gap, starts later steps earlier. Earlier
// re-pins: the misbehaving-node tier (the digest folds the adversary
// counters) and the dense-index storage refactor.
//
// The adversary, flashcrowd and equilibrium pins were computed on the old
// single-queue runner, before every lane count moved onto the ShardedNet
// driver. They cover the planet latency map, the defensive hardening, the
// degrade tier and rate windows with probes, so they are now the fixed
// reference for those paths that a K = 1 run of the old stack used to be
// for shard_determinism_test.
#include <gtest/gtest.h>

#include <cstdint>

#include "chaos/engine.h"
#include "chaos/schedule.h"

namespace hcube::chaos {
namespace {

struct PinnedRun {
  const char* profile;
  std::uint64_t seed;
  std::uint64_t digest;
};

constexpr PinnedRun kPins[] = {
    {"mixed", 1, 0x237e56c32d52e265ULL},
    {"mixed", 2, 0x09fc382804838968ULL},
    {"mixed", 3, 0xa5480970f549d023ULL},
    {"mixed", 4, 0xbaef1cb99f21ce26ULL},
    {"partition", 1, 0x554f5e3eadc61777ULL},
    {"partition", 2, 0x0410b616996cb536ULL},
    {"partition", 3, 0x80d9a4892c1e3a4cULL},
    {"partition", 4, 0x071e09542ae12e94ULL},
    {"adversary", 1, 0x05eae495ab736d7aULL},
    {"adversary", 2, 0x48a7760438652899ULL},
    {"flashcrowd", 1, 0x2d91d8d3bf68aa31ULL},
    {"flashcrowd", 2, 0xbe29ac7411524e9cULL},
};

TEST(DigestPin, FortyStepRunsMatchPinnedValues) {
  for (const PinnedRun& pin : kPins) {
    const ChurnProfile* profile = find_profile(pin.profile);
    ASSERT_NE(profile, nullptr) << pin.profile;
    const ChurnScript script = sample_script(pin.seed, *profile, 40);
    const ChaosResult result = run_script(script);
    EXPECT_EQ(result.digest, pin.digest)
        << pin.profile << " seed " << pin.seed << ": got 0x" << std::hex
        << result.digest << ", pinned 0x" << pin.digest
        << " — see the header comment before re-pinning";
  }
}

// Equilibrium scripts in the shape perfbench's chaos-lossy runs (and
// `hchaos --seed S --rate-join 4 --rate-leave 2`): open-loop rate windows
// with probes, degrade and defend on, planet latency, light loss.
TEST(DigestPin, EquilibriumRunsMatchPinnedValues) {
  constexpr PinnedRun kEquilibriumPins[] = {
      {"equilibrium", 1, 0x9100034c6e28f794ULL},
      {"equilibrium", 2, 0x9dcd469ff1ad4196ULL},
  };
  for (const PinnedRun& pin : kEquilibriumPins) {
    EquilibriumSpec spec;
    spec.rate_join = 4.0;
    spec.rate_leave = 2.0;
    spec.config = find_profile(pin.profile)->config;
    const ChaosResult result =
        run_script(sample_equilibrium_script(pin.seed, spec));
    EXPECT_EQ(result.digest, pin.digest)
        << pin.profile << " seed " << pin.seed << ": got 0x" << std::hex
        << result.digest << ", pinned 0x" << pin.digest
        << " — see the header comment before re-pinning";
  }
}

}  // namespace
}  // namespace hcube::chaos
