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

}  // namespace
}  // namespace hcube::chaos
