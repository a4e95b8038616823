#include "net/sim_transport.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <tuple>
#include <vector>

#include "net/reliable_transport.h"
#include "net/sharded_net.h"
#include "sim/shard_driver.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::make_ids;

Message ping(const NodeId& sender) { return Message{sender, PingMsg{}}; }

TEST(SimTransport, ZeroLatencyDeliversAtCurrentTime) {
  EventQueue q;
  ConstantLatency latency(2, 0.0);
  SimTransport t(q, latency);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 2, 1);
  std::vector<double> delivered_at;
  const HostId a = t.add_endpoint([](HostId, const Message&) {});
  t.add_endpoint(
      [&](HostId, const Message&) { delivered_at.push_back(q.now()); });
  q.schedule_at(7.0, [&] { t.send(a, 1, ping(ids[0])); });
  q.run();
  ASSERT_EQ(delivered_at.size(), 1u);
  EXPECT_DOUBLE_EQ(delivered_at[0], 7.0);  // zero latency, same instant
}

TEST(SimTransport, ZeroLatencyDeliveryIsAsynchronous) {
  // Zero latency must not mean reentrant: a send from inside a handler is
  // delivered after the handler returns, through the event queue.
  EventQueue q;
  ConstantLatency latency(2, 0.0);
  SimTransport t(q, latency);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 2, 2);
  std::vector<int> order;
  const HostId a = t.add_endpoint([&](HostId, const Message&) {
    order.push_back(2);  // reply arrives
  });
  const HostId b = t.add_endpoint([&](HostId from, const Message&) {
    order.push_back(0);
    t.send(1, from, ping(ids[1]));
    order.push_back(1);  // runs before the reply is handled
  });
  t.send(a, b, ping(ids[0]));
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST(SimTransport, ZeroLatencyInterleavedPairsEachStayFifo) {
  EventQueue q;
  ConstantLatency latency(3, 0.0);
  SimTransport t(q, latency);
  const IdParams params{16, 8};
  auto ids = make_ids(params, 40, 4);
  std::vector<NodeId> from_a, from_b;
  const HostId a = t.add_endpoint([](HostId, const Message&) {});
  const HostId b = t.add_endpoint([](HostId, const Message&) {});
  t.add_endpoint([&](HostId from, const Message& m) {
    (from == 0 ? from_a : from_b).push_back(m.sender);
  });
  for (int i = 0; i < 20; ++i) {
    t.send(a, 2, ping(ids[i]));
    t.send(b, 2, ping(ids[20 + i]));
  }
  q.run();
  ASSERT_EQ(from_a.size(), 20u);
  ASSERT_EQ(from_b.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(from_a[i], ids[i]);
    EXPECT_EQ(from_b[i], ids[20 + i]);
  }
}

TEST(SimTransport, DeliversWithModelLatencyAndFifo) {
  EventQueue q;
  ConstantLatency latency(2, 10.0);
  SimTransport t(q, latency);
  const IdParams params{16, 8};
  auto ids = make_ids(params, 20, 5);
  std::vector<std::pair<double, NodeId>> received;
  const HostId a = t.add_endpoint([](HostId, const Message&) {});
  const HostId b = t.add_endpoint([&](HostId, const Message& m) {
    received.push_back({q.now(), m.sender});
  });
  for (int i = 0; i < 20; ++i) t.send(a, b, ping(ids[i]));
  q.run();
  ASSERT_EQ(received.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    EXPECT_DOUBLE_EQ(received[i].first, 10.0);
    EXPECT_EQ(received[i].second, ids[i]);
  }
  EXPECT_EQ(t.messages_sent(), 20u);
  EXPECT_EQ(t.messages_delivered(), 20u);
}

TEST(SimTransport, SelfSendDeliversAtTheSendInstant) {
  EventQueue q;
  ConstantLatency latency(1, 9.0);
  SimTransport t(q, latency);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 1, 6);
  bool delivered = false;
  const HostId a = t.add_endpoint([&](HostId, const Message&) {
    delivered = true;
  });
  t.send(a, a, ping(ids[0]));
  q.run();
  EXPECT_TRUE(delivered);
  EXPECT_DOUBLE_EQ(q.now(), 0.0);  // self-latency is zero
}

TEST(SimTransport, FaultSeamSeesEverySendAndCountsDrops) {
  EventQueue q;
  ConstantLatency latency(2, 0.0);
  SimTransport t(q, latency);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 10, 6);
  int delivered = 0, consulted = 0;
  const HostId a = t.add_endpoint([](HostId, const Message&) {});
  const HostId b = t.add_endpoint([&](HostId, const Message&) { ++delivered; });
  t.fault_injector = [&consulted](HostId, HostId, const Message&) {
    return FaultDecision{consulted++ % 2 == 0 ? FaultAction::kDrop
                                              : FaultAction::kDeliver};
  };
  for (int i = 0; i < 10; ++i) t.send(a, b, ping(ids[i]));
  q.run();
  EXPECT_EQ(consulted, 10);  // once per send attempt, dropped ones included
  EXPECT_EQ(delivered, 5);
  EXPECT_EQ(t.messages_dropped(), 5u);
  EXPECT_EQ(t.messages_sent(), 5u);
}

TEST(SimTransport, PayloadSlabIsRecycled) {
  EventQueue q;
  ConstantLatency latency(2, 0.0);
  SimTransport t(q, latency);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 2, 7);
  const HostId a = t.add_endpoint([](HostId, const Message&) {});
  const HostId b = t.add_endpoint([](HostId, const Message&) {});
  // Sequential sends: each delivery frees its slot before the next send, so
  // one slot serves the whole stream.
  for (int i = 0; i < 100; ++i) {
    t.send(a, b, ping(ids[0]));
    q.run();
  }
  EXPECT_EQ(t.payload_pool_size(), 1u);
  EXPECT_EQ(t.payload_pool_free(), 1u);
  // A burst of 10 in-flight messages grows the slab to 10 and no further.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) t.send(a, b, ping(ids[1]));
    q.run();
  }
  EXPECT_EQ(t.payload_pool_size(), 10u);
  EXPECT_EQ(t.payload_pool_free(), 10u);
}

// ---- lanes: the same transport on K queues ----

// One delivery as its destination saw it: (time, from, tag). The tag rides
// in rel_seq, which a bare transport never touches.
using Seen = std::tuple<SimTime, HostId, std::uint32_t>;

constexpr std::uint32_t kHosts = 6;

// Doubles every third tag and delays every fifth: a pure function of the
// message, so every lane makes the decision a single queue would.
FaultDecision tag_faults(HostId, HostId, const Message& m) {
  FaultDecision d;
  if (m.rel_seq % 3 == 0) d.action = FaultAction::kDuplicate;
  if (m.rel_seq % 5 == 0) d.extra_delay_ms = 7.0;
  return d;
}

Message tagged(const NodeId& sender, std::uint32_t tag, bool reply) {
  Message m = reply ? Message{sender, PongMsg{}} : ping(sender);
  m.rel_seq = tag;
  return m;
}

// Every host pings every other host at t = 0; each ping is answered with a
// pong carrying tag + 1000. `transport_of(h)` is the transport host h
// sends through; the handler records into seen[h]. Through a reliable
// layer the tag is replaced by the layer's sequence number.
template <class TransportOf>
Transport::Handler responder(HostId self, const std::vector<NodeId>& ids,
                             std::array<std::vector<Seen>, kHosts>& seen,
                             TransportOf transport_of) {
  return [self, &ids, &seen, transport_of](HostId from, const Message& m) {
    Transport& t = transport_of(self);
    seen[self].emplace_back(t.queue().now(), from, m.rel_seq);
    if (type_of(m.body) == MessageType::kPing)
      t.send(self, from, tagged(ids[self], m.rel_seq + 1000, true));
  };
}

template <class TransportOf>
void ping_all(const std::vector<NodeId>& ids, TransportOf transport_of) {
  for (HostId a = 0; a < kHosts; ++a)
    for (HostId b = 0; b < kHosts; ++b)
      if (a != b) transport_of(a).send(a, b, tagged(ids[a], a * 10 + b, false));
}

TEST(SimTransport, LanesDeliverWhatOneQueueDelivers) {
  // Each host must see exactly the deliveries — times, senders, order,
  // duplicates, injected delays — that it sees on one standalone queue:
  // cross-lane sends only take a detour through an outbox (DESIGN.md §16).
  // Synthetic latencies keep distinct pairs from tying on delivery time.
  SyntheticLatency latency(kHosts, 5.0, 40.0, 3);
  const auto ids = make_ids(IdParams{4, 4}, kHosts, 11);

  std::array<std::vector<Seen>, kHosts> one;
  std::uint64_t one_sent = 0;
  {
    EventQueue q;
    SimTransport t(q, latency);
    t.fault_injector = tag_faults;
    auto of = [&t](HostId) -> SimTransport& { return t; };
    for (HostId h = 0; h < kHosts; ++h)
      t.add_endpoint(responder(h, ids, one, of));
    ping_all(ids, of);
    q.run();
    one_sent = t.messages_sent();
    EXPECT_EQ(t.messages_delivered(), one_sent);
  }
  // 30 pings and their pongs, some of each doubled.
  EXPECT_GT(one_sent, 60u);

  std::array<std::vector<Seen>, kHosts> lanes_seen;
  LaneRoutes routes;
  routes.out.assign(2, std::vector<Outbox>(2));
  std::array<EventQueue, 2> queues;
  std::array<std::unique_ptr<SimTransport>, 2> lanes;
  for (std::uint32_t i = 0; i < 2; ++i) {
    lanes[i] = std::make_unique<SimTransport>(queues[i], latency, routes, i);
    lanes[i]->fault_injector = tag_faults;
  }
  auto of = [&](HostId h) -> SimTransport& {
    return *lanes[routes.lane_of[h]];
  };
  for (HostId h = 0; h < kHosts; ++h) {
    const std::uint32_t lane = h % 3 == 0 ? 0 : 1;  // lanes of 2 and 4 hosts
    routes.lane_of.push_back(lane);
    routes.local_of.push_back(lanes[lane]->num_endpoints());
    lanes[lane]->add_endpoint_as(h, responder(h, ids, lanes_seen, of));
  }
  std::array<std::uint64_t, 2> mailed{};  // by source lane
  ShardDriver driver({&queues[0], &queues[1]}, latency.min_latency_ms(),
                     [&] {
                       for (std::uint32_t dst = 0; dst < 2; ++dst) {
                         Outbox& box = routes.out[1 - dst][dst];
                         mailed[1 - dst] += box.mail.size();
                         for (RemoteDelivery& r : box.mail)
                           lanes[dst]->commit_remote(std::move(r));
                         box.mail.clear();
                       }
                     });
  ping_all(ids, of);
  driver.drain();

  for (HostId h = 0; h < kHosts; ++h) {
    SCOPED_TRACE(h);
    EXPECT_EQ(lanes_seen[h], one[h]);
  }
  EXPECT_EQ(lanes[0]->messages_sent() + lanes[1]->messages_sent(), one_sent);
  EXPECT_EQ(lanes[0]->messages_delivered() + lanes[1]->messages_delivered(),
            one_sent);
  // Lane 0's two hosts alone mail 8 pings to lane 1 before the first
  // barrier; both directions carry traffic.
  EXPECT_GT(mailed[0], 2u);
  EXPECT_GT(mailed[1], 2u);
  for (const auto& lane : lanes)
    EXPECT_EQ(lane->payload_pool_free(), lane->payload_pool_size());
}

// ---- lanes under the reliable layer: acks settle through receipts ----

constexpr SimTime kRto = 100.0;  // above every clean round trip (<= 80 ms)

// Per-pair faults, a pure function of (pair, message, send time), so every
// lane decides what one queue decides. Before the RTO, 1 -> 0 loses every
// ack it sends, 2 -> 3 delays every data copy past its deadline, and
// 4 -> 5 loses every data copy; later copies pass.
FaultDecision pair_faults(SimTime now, HostId from, HostId to,
                          const Message& m) {
  FaultDecision d;
  const bool ack = type_of(m.body) == MessageType::kRelAck;
  if (now >= kRto) return d;
  if (from == 1 && to == 0 && ack) d.action = FaultAction::kDrop;
  if (from == 2 && to == 3 && !ack) d.extra_delay_ms = kRto;
  if (from == 4 && to == 5 && !ack) d.action = FaultAction::kDrop;
  return d;
}

std::tuple<std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t,
           std::uint64_t>
stats_tuple(const ReliabilityStats& s) {
  return {s.tracked_sent, s.retransmits, s.dup_suppressed, s.acks_sent,
          s.give_ups};
}

// The reference for the reliable-layer lane tests: every host pings every
// other under pair_faults, on one hand-built EventQueue + SimTransport +
// ReliableTransport stack run with queue.run().
struct OneQueueRun {
  std::array<std::vector<Seen>, kHosts> seen;
  ReliabilityStats stats;
  std::uint64_t events = 0;
};

OneQueueRun run_on_one_queue(LatencyModel& latency,
                             const std::vector<NodeId>& ids,
                             const ReliabilityConfig& cfg) {
  OneQueueRun one;
  EventQueue q;
  SimTransport inner(q, latency);
  inner.fault_injector = [&q](HostId from, HostId to, const Message& m) {
    return pair_faults(q.now(), from, to, m);
  };
  ReliableTransport rel(inner, cfg);
  auto of = [&rel](HostId) -> ReliableTransport& { return rel; };
  for (HostId h = 0; h < kHosts; ++h)
    rel.add_endpoint(responder(h, ids, one.seen, of));
  ping_all(ids, of);
  q.run();
  one.stats = rel.rstats();
  one.events = q.events_processed();
  EXPECT_EQ(rel.in_flight(), 0u);
  EXPECT_GT(one.stats.retransmits, 0u);
  EXPECT_GT(one.stats.dup_suppressed, 0u);
  EXPECT_EQ(one.stats.give_ups, 0u);
  return one;
}

TEST(ReliableTransport, LaneReceiptsSettleWhatOneQueueSettles) {
  // One reliable layer per lane: an ack settled on the receiver's lane
  // reaches a sender on the other lane as a receipt committed at the
  // barrier, before the ack is due. Lost acks, late data and lost data
  // must then retransmit, suppress and settle exactly as on one queue.
  SyntheticLatency latency(kHosts, 5.0, 40.0, 3);
  const auto ids = make_ids(IdParams{4, 4}, kHosts, 15);
  ReliabilityConfig cfg;
  cfg.rto_ms = kRto;
  const OneQueueRun one = run_on_one_queue(latency, ids, cfg);

  std::array<std::vector<Seen>, kHosts> lanes_seen;
  LaneRoutes routes;
  routes.out.assign(2, std::vector<Outbox>(2));
  std::array<EventQueue, 2> queues;
  std::array<std::unique_ptr<SimTransport>, 2> lanes;
  std::array<std::unique_ptr<ReliableTransport>, 2> rels;
  for (std::uint32_t i = 0; i < 2; ++i) {
    lanes[i] = std::make_unique<SimTransport>(queues[i], latency, routes, i);
    lanes[i]->fault_injector = [&q = queues[i]](HostId from, HostId to,
                                                const Message& m) {
      return pair_faults(q.now(), from, to, m);
    };
    rels[i] = std::make_unique<ReliableTransport>(*lanes[i], cfg);
  }
  auto of = [&](HostId h) -> ReliableTransport& {
    return *rels[routes.lane_of[h]];
  };
  for (HostId h = 0; h < kHosts; ++h) {
    const std::uint32_t lane = h % 3 == 0 ? 0 : 1;  // lanes of 2 and 4 hosts
    routes.lane_of.push_back(lane);
    routes.local_of.push_back(lanes[lane]->num_endpoints());
    rels[lane]->add_endpoint_as(h, responder(h, ids, lanes_seen, of));
  }
  std::array<std::uint64_t, 2> receipts{};  // by source lane
  ShardDriver driver({&queues[0], &queues[1]}, latency.min_latency_ms(),
                     [&] {
                       for (std::uint32_t dst = 0; dst < 2; ++dst) {
                         Outbox& box = routes.out[1 - dst][dst];
                         receipts[1 - dst] += box.receipts.size();
                         for (RemoteDelivery& r : box.mail)
                           lanes[dst]->commit_remote(std::move(r));
                         for (const AckReceipt& a : box.receipts)
                           rels[dst]->on_receipt(a);
                         box.mail.clear();
                         box.receipts.clear();
                       }
                     });
  ping_all(ids, of);
  driver.drain();

  for (HostId h = 0; h < kHosts; ++h) {
    SCOPED_TRACE(h);
    EXPECT_EQ(lanes_seen[h], one.seen[h]);
  }
  ReliabilityStats sum;
  for (const auto& rel : rels) {
    const ReliabilityStats& s = rel->rstats();
    sum.tracked_sent += s.tracked_sent;
    sum.retransmits += s.retransmits;
    sum.dup_suppressed += s.dup_suppressed;
    sum.acks_sent += s.acks_sent;
    sum.give_ups += s.give_ups;
    EXPECT_EQ(rel->in_flight(), 0u);
  }
  EXPECT_EQ(stats_tuple(sum), stats_tuple(one.stats));
  EXPECT_EQ(driver.events_processed(), one.events);
  // Lost-ack receipts (1 -> 0) and late-data receipts (3 -> 2) cross lanes.
  EXPECT_GT(receipts[1], 2u);
  EXPECT_GT(receipts[0], 2u);
}

TEST(ShardedNet, OneLaneIsTheHandBuiltReliableStack) {
  // A one-lane net hands out its lane's ReliableTransport itself (callers
  // read rstats() through a dynamic_cast), registers hosts densely through
  // it and mails nothing. Driven by the net's driver, the lossy exchange
  // delivers at the times, and with the ARQ statistics and event count, of
  // the hand-built stack run with queue.run().
  SyntheticLatency latency(kHosts, 5.0, 40.0, 3);
  const auto ids = make_ids(IdParams{4, 4}, kHosts, 15);
  ReliabilityConfig cfg;
  cfg.rto_ms = kRto;
  const OneQueueRun one = run_on_one_queue(latency, ids, cfg);

  ShardedNet::Params params;
  params.lanes = 1;
  params.rel = cfg;
  ShardedNet net(params, latency);
  auto* rel = dynamic_cast<ReliableTransport*>(&net.transport());
  ASSERT_NE(rel, nullptr);
  net.lane_transport(0).fault_injector =
      [&q = net.lane_queue(0)](HostId from, HostId to, const Message& m) {
        return pair_faults(q.now(), from, to, m);
      };
  std::array<std::vector<Seen>, kHosts> seen;
  auto of = [rel](HostId) -> ReliableTransport& { return *rel; };
  for (HostId h = 0; h < kHosts; ++h) {
    EXPECT_EQ(net.transport().add_endpoint(responder(h, ids, seen, of)), h);
    EXPECT_EQ(net.lane_of_host(h), 0u);
  }
  ping_all(ids, of);
  net.driver().drain();

  for (HostId h = 0; h < kHosts; ++h) {
    SCOPED_TRACE(h);
    EXPECT_EQ(seen[h], one.seen[h]);
  }
  EXPECT_EQ(stats_tuple(rel->rstats()), stats_tuple(one.stats));
  EXPECT_EQ(stats_tuple(net.rel_stats()), stats_tuple(one.stats));
  EXPECT_EQ(net.driver().events_processed(), one.events);
  EXPECT_EQ(net.rel_in_flight(), 0u);
  EXPECT_EQ(net.cross_shard_messages(), 0u);
}

TEST(ShardedNet, OnlyOneLaneRunsAtZeroLatency) {
  // One lane never reads its epoch, so zero latency serves it: a message
  // arrives at the send instant. More lanes cannot bound their epochs
  // (ShardedNetDeathTest below).
  ConstantLatency zero(2, 0.0);
  ShardedNet net(ShardedNet::Params{}, zero);
  std::vector<double> delivered_at;
  net.transport().add_endpoint([](HostId, const Message&) {});
  net.transport().add_endpoint([&](HostId, const Message&) {
    delivered_at.push_back(net.lane_queue(0).now());
  });
  net.transport().send(0, 1, ping(make_ids(IdParams{4, 4}, 1, 1)[0]));
  net.driver().drain();
  EXPECT_EQ(delivered_at, std::vector<double>{0.0});
}

// gtest runs *DeathTest suites before every other suite, so this forks
// before any case has started a ShardDriver worker thread.
TEST(ShardedNetDeathTest, MoreLanesRefuseZeroLatency) {
  ConstantLatency zero(2, 0.0);
  EXPECT_DEATH({ ShardedNet refused(ShardedNet::Params{2, {}}, zero); },
               "latency model cannot bound cross-shard latency");
}

TEST(ShardedNet, CommitsTiedArrivalsBySourceLaneThenSendOrder) {
  // Cross-lane deliveries due at one host at the same instant are queued
  // in the barrier's canonical order: source lanes ascending, send order
  // within each lane pair. Constant latency makes all four arrivals tie,
  // and the sender on the higher lane sends first and last. One queue
  // would deliver them in send order: such ties are the one place the
  // commit order shows (DESIGN.md §16).
  ConstantLatency latency(64, 10.0);
  ShardedNet net(ShardedNet::Params{3, {}}, latency);
  std::vector<std::pair<HostId, std::uint32_t>> at_dst;  // (from, rel_seq)
  std::array<HostId, 3> first_on{kNoHost, kNoHost, kNoHost};
  for (HostId h = 0; h < 64; ++h) {
    net.transport().add_endpoint([&, h](HostId from, const Message& m) {
      if (h == first_on[0]) at_dst.emplace_back(from, m.rel_seq);
    });
    if (first_on[net.lane_of_host(h)] == kNoHost)
      first_on[net.lane_of_host(h)] = h;
  }
  const HostId dst = first_on[0], low = first_on[1], high = first_on[2];
  ASSERT_NE(high, kNoHost);
  const NodeId id = make_ids(IdParams{4, 4}, 1, 1)[0];
  net.transport().send(high, dst, ping(id));
  net.transport().send(low, dst, ping(id));
  net.transport().send(low, dst, ping(id));
  net.transport().send(high, dst, ping(id));
  net.driver().drain();

  using Arrival = std::pair<HostId, std::uint32_t>;
  EXPECT_EQ(at_dst, (std::vector<Arrival>{{low, 1}, {low, 2}, {high, 1},
                                          {high, 2}}));
  // Four deliveries out, four ack receipts back.
  EXPECT_EQ(net.cross_shard_messages(), 8u);
  EXPECT_EQ(net.rel_in_flight(), 0u);
}

TEST(OverlayAtZeroLatency, JoinWaveConvergesConsistently) {
  // The whole protocol runs on a one-lane World at zero latency: every
  // message still goes through the queue (causality preserved), latencies
  // are just zero, so the network converges in simulated time 0.
  const IdParams params{4, 5};
  World world(params, {}, std::make_unique<ConstantLatency>(24, 0.0));
  auto ids = make_ids(params, 24, 8);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 16);
  build_consistent_network(world.overlay, v);
  Rng rng(9);
  const std::vector<NodeId> w(ids.begin() + 16, ids.end());
  join_concurrently(world, w, v, rng, /*window_ms=*/0.0);

  EXPECT_TRUE(world.overlay.all_in_system());
  EXPECT_TRUE(check_consistency(view_of(world.overlay)).consistent());
  EXPECT_DOUBLE_EQ(world.now(), 0.0);
  // The lane carries each message and its ack, settled at delivery.
  const SimTransport& lane = world.net.lane_transport(0);
  EXPECT_EQ(2 * lane.messages_delivered(), lane.messages_sent());
  EXPECT_EQ(lane.payload_pool_free(), lane.payload_pool_size());
}

TEST(OverlayAtZeroLatency, RunsAreDeterministic) {
  // All deliveries land at t=0; ordering rests entirely on the queue's
  // sequence-number tie-break, so two identical runs must match exactly.
  const IdParams params{4, 5};
  auto run_once = [&] {
    World world(params, {}, std::make_unique<ConstantLatency>(20, 0.0));
    auto ids = make_ids(params, 20, 12);
    const std::vector<NodeId> v(ids.begin(), ids.begin() + 12);
    build_consistent_network(world.overlay, v);
    Rng rng(13);
    const std::vector<NodeId> w(ids.begin() + 12, ids.end());
    join_concurrently(world, w, v, rng, /*window_ms=*/0.0);
    EXPECT_TRUE(world.overlay.all_in_system());
    const Overlay::Totals totals = world.overlay.totals();
    return std::pair{totals.messages, totals.bytes};
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace hcube
