#include "sim/event_queue.h"

#include <gtest/gtest.h>

#include <vector>

namespace hcube {
namespace {

TEST(EventQueue, ExecutesInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(3.0, [&] { order.push_back(3); });
  q.schedule_at(1.0, [&] { order.push_back(1); });
  q.schedule_at(2.0, [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(q.now(), 3.0);
}

TEST(EventQueue, TieBreaksByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    q.schedule_at(5.0, [&order, i] { order.push_back(i); });
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, ScheduleAfterUsesCurrentTime) {
  EventQueue q;
  double fired_at = -1.0;
  q.schedule_at(10.0, [&] {
    q.schedule_after(5.0, [&] { fired_at = q.now(); });
  });
  q.run();
  EXPECT_DOUBLE_EQ(fired_at, 15.0);
}

TEST(EventQueue, EventsMayScheduleMoreEvents) {
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 100) q.schedule_after(1.0, chain);
  };
  q.schedule_at(0.0, chain);
  q.run();
  EXPECT_EQ(count, 100);
  EXPECT_DOUBLE_EQ(q.now(), 99.0);
  EXPECT_EQ(q.events_processed(), 100u);
}

TEST(EventQueue, RunWithEventCap) {
  EventQueue q;
  for (int i = 0; i < 10; ++i) q.schedule_at(i, [] {});
  EXPECT_EQ(q.run(4), 4u);
  EXPECT_EQ(q.pending(), 6u);
  EXPECT_EQ(q.run(), 6u);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RunUntilStopsAtBoundaryInclusive) {
  EventQueue q;
  std::vector<double> fired;
  for (double t : {1.0, 2.0, 3.0, 4.0}) {
    q.schedule_at(t, [&fired, &q] { fired.push_back(q.now()); });
  }
  q.run_until(2.5);
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
  EXPECT_DOUBLE_EQ(q.now(), 2.5);
  q.run_until(4.0);
  EXPECT_EQ(fired.size(), 4u);
}

TEST(EventQueue, RunNextOnEmptyReturnsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.run_next());
}

TEST(EventQueue, TimersAndDeliveriesShareTheTieBreak) {
  // Both event flavors draw from one sequence counter: at the same instant
  // they run in exactly the order they were scheduled, however interleaved.
  EventQueue q;
  std::vector<int> order;
  struct OrderSink : DeliverySink {
    std::vector<int>* order;
    void deliver(HostId, HostId, std::uint32_t slot) override {
      order->push_back(static_cast<int>(slot));
    }
  } sink;
  sink.order = &order;
  q.schedule_at(5.0, [&] { order.push_back(0); });
  q.schedule_delivery_at(5.0, &sink, 0, 0, 1);
  q.schedule_at(5.0, [&] { order.push_back(2); });
  q.schedule_delivery_at(5.0, &sink, 0, 0, 3);
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, DeliveryCarriesEndpointsAndSlot) {
  EventQueue q;
  struct CaptureSink : DeliverySink {
    HostId from = 0, to = 0;
    std::uint32_t slot = 0;
    void deliver(HostId f, HostId t, std::uint32_t s) override {
      from = f;
      to = t;
      slot = s;
    }
  } sink;
  q.schedule_delivery_at(2.0, &sink, 7, 9, 13);
  q.run();
  EXPECT_EQ(sink.from, 7u);
  EXPECT_EQ(sink.to, 9u);
  EXPECT_EQ(sink.slot, 13u);
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
}

TEST(EventQueue, TimerPoolSlotsAreRecycled) {
  EventQueue q;
  int fired = 0;
  // Sequential timers: each closure slot is freed at dispatch, so a single
  // slot serves the whole stream.
  for (int i = 0; i < 100; ++i) {
    q.schedule_after(1.0, [&] { ++fired; });
    q.run();
  }
  EXPECT_EQ(fired, 100);
  EXPECT_EQ(q.timer_pool_size(), 1u);
  EXPECT_EQ(q.timer_pool_free(), 1u);
  // A burst of 10 pending timers grows the pool to 10 and no further.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 10; ++i) q.schedule_after(1.0, [&] { ++fired; });
    q.run();
  }
  EXPECT_EQ(q.timer_pool_size(), 10u);
  EXPECT_EQ(q.timer_pool_free(), 10u);
}

TEST(EventQueue, TimerMaySafelyScheduleFromItsOwnSlot) {
  // dispatch() moves the closure out of the pool before invoking it, so a
  // timer that schedules another timer (possibly reusing its freed slot)
  // must not corrupt itself.
  EventQueue q;
  int count = 0;
  std::function<void()> chain = [&] {
    ++count;
    if (count < 50) q.schedule_after(1.0, chain);
  };
  q.schedule_at(0.0, chain);
  q.run();
  EXPECT_EQ(count, 50);
  EXPECT_EQ(q.timer_pool_size(), 1u);
}

}  // namespace
}  // namespace hcube
