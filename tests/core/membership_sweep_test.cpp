// Property sweeps over the full membership lifecycle: randomized sequences
// of join waves, graceful leaves, crashes, and repairs across ID-space
// shapes and seeds. The invariant after every settled phase is always the
// same: Definition 3.8 consistency over the live membership.
#include <gtest/gtest.h>

#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::make_ids;

struct SweepCase {
  std::uint32_t base;
  std::uint32_t digits;
  std::uint32_t backups;
  std::uint64_t seed;
};

class MembershipSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(MembershipSweep, RandomLifecycleStaysConsistent) {
  const auto& c = GetParam();
  const IdParams params{c.base, c.digits};
  constexpr std::size_t kStart = 60;
  constexpr int kPhases = 8;
  constexpr SimTime kPingTimeout = 500.0;

  ProtocolOptions options;
  options.backups_per_entry = c.backups;
  World world(params, 400, options, c.seed);
  UniqueIdGenerator gen(params, c.seed * 977 + 3);
  Rng rng(c.seed);

  std::vector<NodeId> live;
  for (std::size_t i = 0; i < kStart; ++i) live.push_back(gen.next());
  build_consistent_network(world.overlay, live);

  for (int phase = 0; phase < kPhases; ++phase) {
    switch (rng.next_below(3)) {
      case 0: {  // concurrent join wave
        const std::size_t m = 5 + rng.next_below(20);
        std::vector<NodeId> joiners;
        for (std::size_t i = 0; i < m; ++i) joiners.push_back(gen.next());
        join_concurrently(world, joiners, live, rng,
                          /*window_ms=*/rng.next_below(2) ? 0.0 : 300.0);
        live.insert(live.end(), joiners.begin(), joiners.end());
        break;
      }
      case 1: {  // graceful leaves, serialized
        const std::size_t departures =
            std::min<std::size_t>(3 + rng.next_below(8), live.size() - 5);
        for (std::size_t i = 0; i < departures; ++i) {
          const std::size_t victim = rng.next_below(live.size());
          leave_and_drain(world, live[victim]);
          live.erase(live.begin() + static_cast<long>(victim));
        }
        break;
      }
      case 2: {  // crashes + repair
        const std::size_t kills =
            std::min<std::size_t>(1 + rng.next_below(5), live.size() - 5);
        for (std::size_t i = 0; i < kills; ++i) {
          const std::size_t victim = rng.next_below(live.size());
          world.crash(live[victim]);
          live.erase(live.begin() + static_cast<long>(victim));
        }
        world.repair_all(kPingTimeout, /*rounds=*/3);
        break;
      }
    }
    ASSERT_TRUE(world.overlay.all_in_system()) << "phase " << phase;
    const auto report = check_consistency(view_of(world.overlay));
    ASSERT_TRUE(report.consistent())
        << "phase " << phase << " (b=" << c.base << " d=" << c.digits
        << " seed=" << c.seed << ")\n"
        << report.summary(params);
  }

  // Final global checks: reachability and (when configured) backup sanity.
  const NetworkView net = view_of(world.overlay);
  Rng sample(c.seed ^ 0xf00d);
  EXPECT_EQ(check_reachability_sample(net, 4000, sample), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MembershipSweep,
    ::testing::Values(SweepCase{4, 6, 0, 1}, SweepCase{4, 6, 0, 2},
                      SweepCase{4, 6, 2, 3}, SweepCase{2, 10, 0, 4},
                      SweepCase{2, 10, 1, 5}, SweepCase{8, 5, 0, 6},
                      SweepCase{16, 4, 0, 7}, SweepCase{16, 8, 2, 8},
                      SweepCase{16, 8, 0, 9}, SweepCase{3, 7, 1, 10}));

}  // namespace
}  // namespace hcube
