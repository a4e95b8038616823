// Partition-heal: a two-group network partition during concurrent joins.
//
// While the cut is active no join whose path crosses it can complete — the
// first copy request to the far-side gateway is dropped by the partition,
// and the ARQ layer's retransmissions keep being dropped until the window
// closes. After the heal the buffered retransmissions flow, every join
// completes, and the full consistency audit passes. Run under two distinct
// seeds (different latencies, different fault-RNG streams) per the ISSUE.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/builder.h"
#include "net/fault_plan.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::make_ids;

void run_partition_heal(std::uint64_t seed) {
  const IdParams params{16, 8};
  constexpr std::uint32_t kSeedNodes = 16;
  constexpr std::uint32_t kJoiners = 3;
  constexpr SimTime kWindowEnd = 1500.0;

  // The chaos engine's stack: partition windows healed by the ARQ layer.
  testing::World w(params, kSeedNodes + kJoiners, {}, /*latency_seed=*/seed,
                   ReliabilityConfig{/*rto_ms=*/100.0, /*backoff=*/2.0,
                                     /*max_retries=*/8});
  FaultPlan plan(seed + 1);
  plan.attach(w.net.lane_transport(0));
  const auto ids = make_ids(params, kSeedNodes + kJoiners, seed);
  const std::vector<NodeId> seeds(ids.begin(), ids.begin() + kSeedNodes);
  build_consistent_network(w.overlay, seeds);

  // Cut every host (including the joiners' future endpoints, assigned in
  // registration order) into two groups by parity for [0, 1500).
  std::vector<std::vector<HostId>> groups(2);
  for (HostId h = 0; h < kSeedNodes + kJoiners; ++h)
    groups[h & 1].push_back(h);
  plan.partition(groups, 0.0, kWindowEnd);

  // Every joiner gets a gateway on the other side of the cut, so its very
  // first copy request must cross the partition.
  for (std::uint32_t k = 0; k < kJoiners; ++k) {
    const std::uint32_t joiner_host = kSeedNodes + k;
    const std::uint32_t gateway = 2 * k + ((joiner_host & 1) ^ 1);
    ASSERT_NE(joiner_host & 1, gateway & 1);
    w.schedule_join(ids[joiner_host], seeds[gateway],
                    10.0 + static_cast<SimTime>(k));
  }

  // Probe just before the window closes: no join may have completed across
  // the cut.
  std::uint32_t settled_mid_window = 0;
  w.net.driver().schedule_action(kWindowEnd - 1.0, [&] {
    for (std::uint32_t k = 0; k < kJoiners; ++k)
      if (w.overlay.at(ids[kSeedNodes + k]).is_s_node()) ++settled_mid_window;
  });

  w.drain();

  EXPECT_EQ(settled_mid_window, 0u) << "a join completed across the cut";
  EXPECT_GT(plan.partition_drops(), 0u) << "the cut never dropped anything";
  EXPECT_GT(w.net.rel_stats().retransmits, 0u);
  // The ARQ retry span (100ms * 2^k, 8 retries ~ 25s) dwarfs the 1.5s
  // window, so nothing may have been abandoned.
  EXPECT_EQ(w.net.rel_stats().give_ups, 0u);

  // After the heal every join completed and the network is consistent.
  for (std::uint32_t k = 0; k < kJoiners; ++k)
    EXPECT_TRUE(w.overlay.at(ids[kSeedNodes + k]).is_s_node()) << "joiner " << k;
  EXPECT_TRUE(w.overlay.all_in_system());
  const ConsistencyReport report = testing::audit(w.overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params, 3);
}

TEST(PartitionHeal, NoJoinCompletesAcrossTheCutSeedA) {
  run_partition_heal(11);
}

TEST(PartitionHeal, NoJoinCompletesAcrossTheCutSeedB) {
  run_partition_heal(12);
}

}  // namespace
}  // namespace hcube
