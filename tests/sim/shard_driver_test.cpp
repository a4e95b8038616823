// ShardDriver's action rules, driven directly: actions at one instant run
// in scheduling order at one barrier (those an action schedules at its own
// instant included), before the lane events due then and with every lane
// clock at that instant; a drain leaves every lane clock at the last
// event's time; and no action can be scheduled into the past.
#include "sim/shard_driver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace hcube {
namespace {

// k lanes under one driver, with no outboxes to commit.
struct Lanes {
  explicit Lanes(std::uint32_t k)
      : queues(k), driver(pointers(queues), /*epoch_ms=*/1.0, [] {}) {}
  static std::vector<EventQueue*> pointers(std::vector<EventQueue>& qs) {
    std::vector<EventQueue*> out;
    for (EventQueue& q : qs) out.push_back(&q);
    return out;
  }
  std::vector<EventQueue> queues;
  ShardDriver driver;
};

// gtest runs *DeathTest suites before every other suite, so this forks
// before any case has started a ShardDriver worker thread.
TEST(ShardDriverDeathTest, AnActionBeforeTheLastEventDies) {
  Lanes lanes(1);
  lanes.queues[0].schedule_at(5.0, [] {});
  lanes.driver.drain();
  EXPECT_DEATH(lanes.driver.schedule_action(4.0, [] {}),
               "cannot schedule an action into the past");
}

TEST(ShardDriver, ActionsAtOneInstantRunInSchedulingOrder) {
  Lanes lanes(1);
  ShardDriver& driver = lanes.driver;
  std::vector<int> order;
  driver.schedule_action(5.0, [&] { order.push_back(1); });
  driver.schedule_action(2.0, [&] { order.push_back(0); });
  driver.schedule_action(5.0, [&] { order.push_back(2); });
  driver.schedule_action(5.0, [&] { order.push_back(3); });
  lanes.queues[0].schedule_at(3.0, [&] { order.push_back(-1); });
  driver.drain();
  EXPECT_EQ(order, (std::vector<int>{0, -1, 1, 2, 3}));
  EXPECT_EQ(driver.actions_executed(), 4u);
  EXPECT_EQ(driver.events_processed(), 5u);  // four actions, one lane event
  EXPECT_DOUBLE_EQ(driver.last_event_time(), 5.0);
}

TEST(ShardDriver, AnActionSchedulesAnotherAtItsOwnInstant) {
  for (const std::uint32_t k : {1u, 2u}) {
    SCOPED_TRACE(k);
    Lanes lanes(k);
    ShardDriver& driver = lanes.driver;
    std::vector<std::uint64_t> epoch_of_action;
    std::vector<SimTime> clocks;  // every lane's, read inside each action
    std::uint32_t actions_run = 0;
    auto action = [&] {
      epoch_of_action.push_back(driver.epochs_run());
      for (EventQueue& q : lanes.queues) clocks.push_back(q.now());
      ++actions_run;
    };
    // Each lane's event at the same instant records how many actions ran
    // before it (the barrier orders the driver's write before its read).
    std::vector<std::uint32_t> actions_before(k, 0);
    for (std::uint32_t i = 0; i < k; ++i)
      lanes.queues[i].schedule_at(
          10.0, [&, i] { actions_before[i] = actions_run; });
    driver.schedule_action(10.0, [&] {
      action();
      driver.schedule_action(10.0, action);
    });
    driver.drain();
    ASSERT_EQ(epoch_of_action.size(), 2u);
    EXPECT_EQ(epoch_of_action[0], epoch_of_action[1]);  // one barrier
    EXPECT_EQ(clocks, std::vector<SimTime>(2 * k, 10.0));
    EXPECT_EQ(actions_before, std::vector<std::uint32_t>(k, 2));
    EXPECT_EQ(driver.actions_executed(), 2u);
  }
}

TEST(ShardDriver, DrainLeavesEveryLaneClockAtTheLastEvent) {
  // With no action pending, one lane's boundary is +inf: its clock must
  // still stop at the last event. On two lanes, the lane that went idle
  // first is brought up to that time too.
  for (const std::uint32_t k : {1u, 2u}) {
    SCOPED_TRACE(k);
    Lanes lanes(k);
    lanes.queues[0].schedule_at(3.0, [] {});
    lanes.queues[k - 1].schedule_at(7.0, [] {});
    lanes.driver.drain();
    EXPECT_DOUBLE_EQ(lanes.driver.last_event_time(), 7.0);
    for (EventQueue& q : lanes.queues) EXPECT_DOUBLE_EQ(q.now(), 7.0);
  }
}

}  // namespace
}  // namespace hcube
