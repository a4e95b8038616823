// Pinned chaos digests: the engine is a pure function of (seed, profile,
// steps), so these exact FNV-1a folds must reproduce on every build. A
// mismatch means event ordering changed somewhere — a new container with a
// different iteration order, a scheduling tweak, a protocol edit — and is
// either a bug or a deliberate change that must re-pin these constants and
// say so in its change notes.
//
// Current values date from the event-free ARQ clean path: acks are settled
// at their data's delivery instead of delivered as events, and a
// retransmission timer is armed only for a deadline that will fire (each
// message at its own deadline, where the old per-pair timer could hold a
// fresh message back to a backed-off one). The digest folds the event
// count, which lost every ack delivery and stale timer; and quiescence no
// longer waits for stale timers, so the runner, which places each step at
// max(cursor, sim_now()) + gap, starts later steps earlier. Previous
// re-pins: the misbehaving-node tier (the digest folds the five adversary
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
    {"mixed", 1, 0xb8a7238fffc74245ULL},
    {"mixed", 2, 0xe53d069001086288ULL},
    {"mixed", 3, 0x9d6d657d28d707c3ULL},
    {"mixed", 4, 0x6f76dc4332e5f186ULL},
    {"partition", 1, 0x81e426f5164fc297ULL},
    {"partition", 2, 0xe5e85ba992a86156ULL},
    {"partition", 3, 0x62903aecca7d2a8cULL},
    {"partition", 4, 0xbc141946a6d4ac54ULL},
    {"adversary", 1, 0x4e10433f5db66e1aULL},
    {"adversary", 2, 0x31f8528172700cf9ULL},
    {"flashcrowd", 1, 0x6390a31ed992c051ULL},
    {"flashcrowd", 2, 0x613d5435ee70b11cULL},
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
      {"equilibrium", 1, 0x1227df3a0db02234ULL},
      {"equilibrium", 2, 0xde936197e35126b6ULL},
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
