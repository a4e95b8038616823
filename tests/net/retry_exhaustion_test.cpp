// ReliableTransport retry exhaustion against a *permanently* silent peer.
// The ARQ layer's contract is bounded: after max_retries RTO expiries the
// message is abandoned, on_give_up fires, and recovery belongs to the
// protocol tier — the join-stall watchdog. These tests pin that whole
// hand-off chain: bounded retries -> give-up callback -> watchdog restarts
// -> (when every restart hits the same dead wire) a clean bounded abort
// that leaves the rest of the network consistent and the transport empty.
// Companion to reliable_join_test.cpp, where the silence is transient and
// the watchdog's restart actually completes.
#include <gtest/gtest.h>

#include <vector>

#include "core/consistency.h"
#include "core/view.h"
#include "net/fault_plan.h"
#include "net/reliable_transport.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::make_ids;

// A one-lane net's transport() is its lane's ReliableTransport.
ReliableTransport& arq_of(World& world) {
  return dynamic_cast<ReliableTransport&>(world.net.transport());
}

TEST(RetryExhaustion, SilentGatewayGivesUpThenWatchdogAbortsCleanly) {
  for (const std::uint64_t seed : {7ULL, 8ULL}) {
    const IdParams params{4, 6};
    ProtocolOptions options;
    options.join_watchdog_ms = 20000.0;  // > the full retry span per attempt
    options.join_max_restarts = 3;
    ReliabilityConfig cfg;
    cfg.rto_ms = 500.0;
    cfg.backoff = 2.0;
    cfg.max_retries = 2;
    World world(params, 20, options, seed, cfg);

    auto ids = make_ids(params, 17, seed);
    const std::vector<NodeId> v(ids.begin(), ids.begin() + 16);
    const NodeId joiner = ids.back();
    build_consistent_network(world.overlay, v);

    // The joiner's one entry point is a host that never answers it again:
    // both directions of the pair are blackholed (data, replies and acks
    // alike), so every attempt through it must exhaust the retry budget.
    world.schedule_join(joiner, v[0], 0.0);
    const HostId hj = world.overlay.host_of(joiner);
    const HostId hg = world.overlay.host_of(v[0]);
    FaultPlan plan(seed);
    plan.set_for_pair(hj, hg, {.drop = 1.0});
    plan.set_for_pair(hg, hj, {.drop = 1.0});
    plan.attach(world.net.lane_transport(0));

    std::uint64_t give_ups_from_joiner = 0;
    arq_of(world).on_give_up = [&](HostId from, HostId to, const Message&) {
      if (from == hj && to == hg) ++give_ups_from_joiner;
    };

    world.drain();

    const Node& jn = world.overlay.at(joiner);
    const JoinStats& s = jn.join_stats();
    // Bounded retries ended in give-ups, reported through the callback …
    EXPECT_GE(give_ups_from_joiner, 1u) << "seed " << seed;
    EXPECT_GE(world.net.rel_stats().give_ups, give_ups_from_joiner)
        << "seed " << seed;
    // … and the watchdog took over: one restart per abandoned attempt,
    // until the whole restart budget was spent on the same dead wire.
    EXPECT_EQ(s.watchdog_restarts, options.join_max_restarts)
        << "seed " << seed;
    EXPECT_NE(jn.status(), NodeStatus::kInSystem) << "seed " << seed;
    // Clean abort, not a wedge: the queue drained, nothing is still in
    // flight, and the seed network the joiner never reached is untouched.
    EXPECT_EQ(world.net.rel_in_flight(), 0u) << "seed " << seed;
    NetworkView settled(params);
    for (const auto& node : world.overlay.nodes())
      if (node->is_s_node()) settled.add(&node->table());
    const auto report = check_consistency(settled);
    EXPECT_TRUE(report.consistent())
        << "seed " << seed << "\n" << report.summary(params);
  }
}

TEST(RetryExhaustion, GiveUpCountsMatchAttemptAccounting) {
  // Same dead wire, one seed, tighter accounting: attempts = 1 original +
  // join_max_restarts restarts, and each attempt's CpRstMsg is abandoned
  // exactly once, so the transport's give-up counter from the joiner's
  // side equals the attempt count.
  const IdParams params{4, 6};
  ProtocolOptions options;
  options.join_watchdog_ms = 20000.0;
  options.join_max_restarts = 2;
  ReliabilityConfig cfg;
  cfg.rto_ms = 400.0;
  cfg.backoff = 2.0;
  cfg.max_retries = 1;
  World world(params, 20, options, 9, cfg);

  auto ids = make_ids(params, 17, 9);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 16);
  const NodeId joiner = ids.back();
  build_consistent_network(world.overlay, v);

  world.schedule_join(joiner, v[0], 0.0);
  const HostId hj = world.overlay.host_of(joiner);
  const HostId hg = world.overlay.host_of(v[0]);
  FaultPlan plan(9);
  plan.set_for_pair(hj, hg, {.drop = 1.0});
  plan.set_for_pair(hg, hj, {.drop = 1.0});
  plan.attach(world.net.lane_transport(0));

  std::uint64_t give_ups_from_joiner = 0;
  arq_of(world).on_give_up = [&](HostId from, HostId, const Message&) {
    if (from == hj) ++give_ups_from_joiner;
  };
  world.drain();

  EXPECT_EQ(give_ups_from_joiner, options.join_max_restarts + 1u);
  EXPECT_EQ(world.overlay.at(joiner).join_stats().watchdog_restarts,
            options.join_max_restarts);
  EXPECT_EQ(world.net.rel_in_flight(), 0u);
}

}  // namespace
}  // namespace hcube
