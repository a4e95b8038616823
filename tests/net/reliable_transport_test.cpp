// ReliableTransport: the ARQ decorator must heal drops, duplicates and
// delays injected below it (FaultPlan), stay exactly-once toward handlers,
// and — on a clean network — never retransmit, never suppress, recycle its
// in-flight slab instead of allocating, and spend one event per message:
// acks are settled at delivery, and a timer is armed only for a deadline
// that will fire.
#include "net/reliable_transport.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "net/fault_plan.h"
#include "net/sim_transport.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::make_ids;

Message ping(const NodeId& sender) { return Message{sender, PingMsg{}}; }

TEST(ReliableTransport, CleanPathDeliversOnceWithZeroRetransmits) {
  EventQueue q;
  ConstantLatency latency(2, 10.0);
  SimTransport inner(q, latency);
  ReliableTransport rel(inner);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 1);
  int delivered = 0;
  const HostId a = rel.add_endpoint([](HostId, const Message&) {});
  const HostId b = rel.add_endpoint([&](HostId, const Message&) { ++delivered; });
  for (int i = 0; i < 50; ++i) rel.send(a, b, ping(ids[0]));
  q.run();
  EXPECT_EQ(delivered, 50);
  EXPECT_EQ(rel.messages_delivered(), 50u);
  EXPECT_EQ(rel.rstats().tracked_sent, 50u);
  EXPECT_EQ(rel.rstats().retransmits, 0u);
  EXPECT_EQ(rel.rstats().dup_suppressed, 0u);
  EXPECT_EQ(rel.rstats().acks_sent, 50u);
  EXPECT_EQ(rel.rstats().give_ups, 0u);
  EXPECT_EQ(rel.in_flight(), 0u);
  // Inner transport saw the data plus one ack per message, nothing more,
  // and the data deliveries were the only events: acks are settled, not
  // delivered, and no timer was armed.
  EXPECT_EQ(inner.messages_sent(), 100u);
  EXPECT_EQ(inner.messages_delivered(), 50u);
  EXPECT_EQ(q.events_processed(), 50u);
}

TEST(ReliableTransport, AckSlowerThanRtoRetransmitsOnce) {
  // The data arrives at 30 and its ack at 60, after the deadline at 50: the
  // timer fires once, and the ack settled at 30 retires the entry against
  // the backed-off deadline (150) — no second timer, no ack event.
  EventQueue q;
  ConstantLatency latency(2, 30.0);
  SimTransport inner(q, latency);
  ReliabilityConfig cfg;
  cfg.rto_ms = 50.0;
  ReliableTransport rel(inner, cfg);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 13);
  int delivered = 0;
  const HostId a = rel.add_endpoint([](HostId, const Message&) {});
  const HostId b = rel.add_endpoint([&](HostId, const Message&) { ++delivered; });
  rel.send(a, b, ping(ids[0]));
  q.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rel.rstats().retransmits, 1u);
  EXPECT_EQ(rel.rstats().dup_suppressed, 1u);
  EXPECT_EQ(rel.rstats().acks_sent, 2u);
  EXPECT_EQ(rel.in_flight(), 0u);
  // Two data deliveries and one timer.
  EXPECT_EQ(q.events_processed(), 3u);
}

TEST(ReliableTransport, FreshMessageKeepsItsOwnRto) {
  // a -> b loses message 1, its first retransmission, and message 2 (sent
  // at 60). Message 1's deadline has backed off to 150, but message 2 is
  // due at its own deadline, 60 + 50: retransmitted at 110, delivered at
  // 120 — not held back to message 1's retransmission at 150.
  EventQueue q;
  ConstantLatency latency(2, 10.0);
  SimTransport inner(q, latency);
  ReliabilityConfig cfg;
  cfg.rto_ms = 50.0;
  cfg.backoff = 2.0;
  ReliableTransport rel(inner, cfg);
  FaultPlan plan(14);
  plan.set_for_type(MessageType::kPing, {.drop = 1.0, .max_drops = 3});
  plan.attach(inner);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 14);
  std::vector<std::pair<std::uint32_t, SimTime>> delivered;
  const HostId a = rel.add_endpoint([](HostId, const Message&) {});
  const HostId b = rel.add_endpoint([&](HostId, const Message& m) {
    delivered.emplace_back(m.rel_seq, q.now());
  });
  rel.send(a, b, ping(ids[0]));
  q.schedule_at(60.0, [&] { rel.send(a, b, ping(ids[0])); });
  q.run();
  using Arrival = std::pair<std::uint32_t, SimTime>;
  EXPECT_EQ(delivered, (std::vector<Arrival>{{2u, 120.0}, {1u, 160.0}}));
  EXPECT_EQ(plan.drops_injected(), 3u);
  EXPECT_EQ(rel.rstats().retransmits, 3u);
  EXPECT_EQ(rel.in_flight(), 0u);
}

TEST(ReliableTransport, RetransmissionHealsADroppedMessage) {
  EventQueue q;
  ConstantLatency latency(2, 10.0);
  SimTransport inner(q, latency);
  ReliabilityConfig cfg;
  cfg.rto_ms = 50.0;
  ReliableTransport rel(inner, cfg);
  FaultPlan plan(7);
  plan.set_default({.drop = 1.0, .max_drops = 1});
  plan.attach(inner);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 2);
  std::vector<SimTime> delivered_at;
  const HostId a = rel.add_endpoint([](HostId, const Message&) {});
  const HostId b = rel.add_endpoint(
      [&](HostId, const Message&) { delivered_at.push_back(q.now()); });
  rel.send(a, b, ping(ids[0]));
  q.run();
  ASSERT_EQ(delivered_at.size(), 1u);
  // Lost at t=0, retransmitted at the RTO, delivered one latency later.
  EXPECT_DOUBLE_EQ(delivered_at[0], 60.0);
  EXPECT_EQ(plan.drops_injected(), 1u);
  EXPECT_EQ(rel.rstats().retransmits, 1u);
  EXPECT_EQ(rel.rstats().dup_suppressed, 0u);
  EXPECT_EQ(rel.in_flight(), 0u);
}

TEST(ReliableTransport, LostAckHealedByDuplicateSuppression) {
  EventQueue q;
  ConstantLatency latency(2, 10.0);
  SimTransport inner(q, latency);
  ReliabilityConfig cfg;
  cfg.rto_ms = 50.0;
  ReliableTransport rel(inner, cfg);
  FaultPlan plan(8);
  plan.set_for_type(MessageType::kRelAck, {.drop = 1.0, .max_drops = 1});
  plan.attach(inner);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 3);
  int delivered = 0;
  const HostId a = rel.add_endpoint([](HostId, const Message&) {});
  const HostId b = rel.add_endpoint([&](HostId, const Message&) { ++delivered; });
  rel.send(a, b, ping(ids[0]));
  q.run();
  // The data message arrived once; its ack was lost, so the sender
  // retransmitted and the receiver suppressed the copy but re-acked it.
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(rel.rstats().retransmits, 1u);
  EXPECT_EQ(rel.rstats().dup_suppressed, 1u);
  EXPECT_EQ(rel.rstats().acks_sent, 2u);
  EXPECT_EQ(rel.in_flight(), 0u);
}

TEST(ReliableTransport, NetworkDuplicatesAreSuppressed) {
  EventQueue q;
  ConstantLatency latency(2, 10.0);
  SimTransport inner(q, latency);
  ReliableTransport rel(inner);
  FaultPlan plan(9);
  plan.set_for_type(MessageType::kPing, {.duplicate = 1.0});
  plan.attach(inner);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 4);
  int delivered = 0;
  const HostId a = rel.add_endpoint([](HostId, const Message&) {});
  const HostId b = rel.add_endpoint([&](HostId, const Message&) { ++delivered; });
  rel.send(a, b, ping(ids[0]));
  q.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(plan.duplicates_injected(), 1u);
  EXPECT_EQ(rel.rstats().dup_suppressed, 1u);
  // Both copies were acked (the first ack might have been the lost one).
  EXPECT_EQ(rel.rstats().acks_sent, 2u);
  EXPECT_EQ(rel.rstats().retransmits, 0u);
  EXPECT_EQ(rel.in_flight(), 0u);
}

TEST(ReliableTransport, InjectedDelayIsAddedOnTopOfLatency) {
  EventQueue q;
  ConstantLatency latency(2, 10.0);
  SimTransport inner(q, latency);
  ReliableTransport rel(inner);  // default RTO 500 > 40: no retransmit
  FaultPlan plan(10);
  plan.set_for_type(MessageType::kPing,
                    {.delay = 1.0, .extra_delay_ms = 30.0});
  plan.attach(inner);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 5);
  std::vector<SimTime> delivered_at;
  const HostId a = rel.add_endpoint([](HostId, const Message&) {});
  const HostId b = rel.add_endpoint(
      [&](HostId, const Message&) { delivered_at.push_back(q.now()); });
  rel.send(a, b, ping(ids[0]));
  q.run();
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_DOUBLE_EQ(delivered_at[0], 40.0);
  EXPECT_EQ(plan.delays_injected(), 1u);
  EXPECT_EQ(rel.rstats().retransmits, 0u);
  EXPECT_EQ(rel.in_flight(), 0u);
}

TEST(ReliableTransport, GiveUpAfterRetryBudget) {
  EventQueue q;
  ConstantLatency latency(2, 10.0);
  SimTransport inner(q, latency);
  ReliabilityConfig cfg;
  cfg.rto_ms = 20.0;
  cfg.backoff = 2.0;
  cfg.max_retries = 2;
  ReliableTransport rel(inner, cfg);
  FaultPlan plan(11);
  plan.set_for_pair(0, 1, {.drop = 1.0});  // a -> b is a black hole
  plan.attach(inner);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 6);
  int delivered = 0;
  int gave_up = 0;
  const HostId a = rel.add_endpoint([](HostId, const Message&) {});
  const HostId b = rel.add_endpoint([&](HostId, const Message&) { ++delivered; });
  rel.on_give_up = [&](HostId from, HostId to, const Message& msg) {
    ++gave_up;
    EXPECT_EQ(from, a);
    EXPECT_EQ(to, b);
    EXPECT_EQ(type_of(msg.body), MessageType::kPing);
  };
  rel.send(a, b, ping(ids[0]));
  q.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(gave_up, 1);
  EXPECT_EQ(rel.rstats().retransmits, 2u);
  EXPECT_EQ(rel.rstats().give_ups, 1u);
  EXPECT_EQ(rel.in_flight(), 0u);
  // The abandoned message's slab slot was reclaimed.
  EXPECT_EQ(rel.inflight_pool_free(), rel.inflight_pool_size());
}

TEST(ReliableTransport, InFlightSlabIsRecycled) {
  EventQueue q;
  ConstantLatency latency(2, 0.0);
  SimTransport inner(q, latency);
  ReliableTransport rel(inner);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 2, 7);
  const HostId a = rel.add_endpoint([](HostId, const Message&) {});
  const HostId b = rel.add_endpoint([](HostId, const Message&) {});
  // Sequential sends: the ack frees the slot before the next send, so one
  // slot serves the whole stream.
  for (int i = 0; i < 100; ++i) {
    rel.send(a, b, ping(ids[0]));
    q.run();
  }
  EXPECT_EQ(rel.inflight_pool_size(), 1u);
  EXPECT_EQ(rel.inflight_pool_free(), 1u);
  // A burst of 10 unacked messages grows the slab to 10 and no further.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) rel.send(a, b, ping(ids[1]));
    q.run();
  }
  EXPECT_EQ(rel.inflight_pool_size(), 10u);
  EXPECT_EQ(rel.inflight_pool_free(), 10u);
  EXPECT_EQ(rel.rstats().retransmits, 0u);
}

TEST(ReliableTransport, DecoratorFaultSeamDropMeansNeverSent) {
  // A drop at the decorator's own seam is "the app never sent it": no
  // sequence number, no retransmission, no inner traffic.
  EventQueue q;
  ConstantLatency latency(2, 0.0);
  SimTransport inner(q, latency);
  ReliableTransport rel(inner);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 8);
  int delivered = 0;
  const HostId a = rel.add_endpoint([](HostId, const Message&) {});
  const HostId b = rel.add_endpoint([&](HostId, const Message&) { ++delivered; });
  rel.fault_injector = [](HostId, HostId, const Message&) {
    return FaultDecision{FaultAction::kDrop};
  };
  EXPECT_FALSE(rel.send(a, b, ping(ids[0])));
  q.run();
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rel.messages_dropped(), 1u);
  EXPECT_EQ(rel.rstats().tracked_sent, 0u);
  EXPECT_EQ(inner.messages_sent(), 0u);
}

TEST(FaultPlanRules, PairBeatsTypeBeatsDefault) {
  FaultPlan plan(12);
  plan.set_default({.drop = 1.0});
  plan.set_for_type(MessageType::kPing, {});  // clean override for pings
  plan.set_for_pair(3, 4, {.drop = 1.0});     // but this pair is a black hole
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 9);
  const Message ping_msg = ping(ids[0]);
  const Message pong_msg{ids[0], PongMsg{}};
  EXPECT_EQ(plan.decide(0, 1, ping_msg).action, FaultAction::kDeliver);
  EXPECT_EQ(plan.decide(0, 1, pong_msg).action, FaultAction::kDrop);
  EXPECT_EQ(plan.decide(3, 4, ping_msg).action, FaultAction::kDrop);
}

TEST(FaultPlanRules, SeededRunsAreReproducible) {
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 10);
  const Message msg = ping(ids[0]);
  auto run = [&](std::uint64_t seed) {
    FaultPlan plan(seed);
    plan.set_default({.drop = 0.3, .duplicate = 0.3, .delay = 0.3,
                      .extra_delay_ms = 5.0});
    std::vector<int> outcome;
    for (int i = 0; i < 200; ++i) {
      const FaultDecision d = plan.decide(0, 1, msg);
      outcome.push_back(static_cast<int>(d.action) * 2 +
                        (d.extra_delay_ms > 0.0 ? 1 : 0));
    }
    return outcome;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
}  // namespace hcube
