// FaultPlan unit tests: the seeded drop/duplicate decision, its draw order
// and reproducibility, and the first-class partition primitive with its
// half-open, overlapping windows.
#include "net/fault_plan.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace hcube {
namespace {

TEST(FaultPlanDecisions, DropWinsOverDuplicate) {
  FaultPlan duplicate(7, {.duplicate = 1.0});
  const FaultDecision decision = duplicate.decide(0, 1);
  EXPECT_EQ(decision.action, FaultAction::kDuplicate);
  EXPECT_DOUBLE_EQ(decision.extra_delay_ms, 0.0);
  EXPECT_EQ(duplicate.duplicates_injected(), 1u);

  FaultPlan both(7, {.drop = 1.0, .duplicate = 1.0});
  EXPECT_EQ(both.decide(0, 1).action, FaultAction::kDrop);
  EXPECT_EQ(both.drops_injected(), 1u);
  EXPECT_EQ(both.duplicates_injected(), 0u);

  FaultPlan clean(7);
  EXPECT_EQ(clean.decide(0, 1).action, FaultAction::kDeliver);
  EXPECT_EQ(clean.drops_injected() + clean.duplicates_injected(), 0u);
}

TEST(FaultPlanDecisions, DrawsDropThenDuplicateFromOneStream) {
  // Every chaos digest rests on this order: one draw for drop and, for a
  // message that survived it, one draw for duplicate, both from the plan's
  // one seeded stream.
  FaultPlan plan(42, {.drop = 0.3, .duplicate = 0.2});
  Rng replay(42);
  for (int i = 0; i < 200; ++i) {
    FaultAction expected = FaultAction::kDeliver;
    if (replay.next_bool(0.3)) {
      expected = FaultAction::kDrop;
    } else if (replay.next_bool(0.2)) {
      expected = FaultAction::kDuplicate;
    }
    ASSERT_EQ(plan.decide(0, 1).action, expected) << "decision " << i;
  }
}

TEST(FaultPlanDecisions, SeededRunsAreReproducible) {
  auto run = [](std::uint64_t seed) {
    FaultPlan plan(seed, {.drop = 0.3, .duplicate = 0.3});
    std::vector<FaultAction> outcome;
    for (int i = 0; i < 200; ++i) outcome.push_back(plan.decide(0, 1).action);
    return outcome;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

TEST(FaultPlanPartition, CutsCrossGroupTrafficForTheWindow) {
  EventQueue queue;
  FaultPlan plan(5);
  plan.bind_clock(queue);
  plan.partition({{0, 1}, {2, 3}}, 100.0, 200.0);

  queue.schedule_at(150.0, [&] {
    EXPECT_TRUE(plan.partitioned(0, 2));
    EXPECT_FALSE(plan.partitioned(0, 1));
    // Cross-group: dropped, charged to the partition counter.
    EXPECT_EQ(plan.decide(0, 2).action, FaultAction::kDrop);
    EXPECT_EQ(plan.decide(3, 1).action, FaultAction::kDrop);
    // Same group: unaffected.
    EXPECT_EQ(plan.decide(0, 1).action, FaultAction::kDeliver);
    // A host absent from every group is unaffected.
    EXPECT_EQ(plan.decide(0, 7).action, FaultAction::kDeliver);
  });
  queue.schedule_at(250.0, [&] {
    // The window closed: the partition healed by itself.
    EXPECT_FALSE(plan.partitioned(0, 2));
    EXPECT_EQ(plan.decide(0, 2).action, FaultAction::kDeliver);
  });
  queue.run();
  EXPECT_EQ(plan.partition_drops(), 2u);
  EXPECT_EQ(plan.drops_injected(), 0u)
      << "partition drops are counted apart from the seeded drops";
}

TEST(FaultPlanPartition, WindowEdgesAreHalfOpen) {
  // Regression pin for the exact edge semantics: a partition window is
  // half-open [t0, t1). t == t0 is inside, t == t1 is outside, and
  // back-to-back windows [100, 200) + [200, 300) hand off at the seam with
  // neither a gap nor a double cut.
  EventQueue queue;
  FaultPlan plan(8);
  plan.bind_clock(queue);
  plan.partition({{0}, {1}}, 100.0, 200.0);
  plan.partition({{0}, {2}}, 200.0, 300.0);

  std::vector<std::pair<bool, bool>> cuts;  // (0|1 cut, 0|2 cut)
  for (const SimTime t : {99.999, 100.0, 199.999, 200.0, 299.999, 300.0}) {
    queue.schedule_at(t, [&] {
      cuts.emplace_back(plan.partitioned(0, 1), plan.partitioned(0, 2));
    });
  }
  queue.schedule_at(100.0, [&] {  // opening edge: the cut drops
    EXPECT_EQ(plan.decide(0, 1).action, FaultAction::kDrop);
  });
  queue.schedule_at(200.0, [&] {  // closing edge: the first cut healed
    EXPECT_EQ(plan.decide(0, 1).action, FaultAction::kDeliver);
  });
  queue.run();
  using Cut = std::pair<bool, bool>;
  EXPECT_EQ(cuts, (std::vector<Cut>{{false, false},
                                    {true, false},
                                    {true, false},
                                    {false, true},
                                    {false, true},
                                    {false, false}}));
  EXPECT_EQ(plan.partition_drops(), 1u);
}

TEST(FaultPlanPartition, OverlappingWindowsEachSeparate) {
  EventQueue queue;
  FaultPlan plan(6);
  plan.bind_clock(queue);
  plan.partition({{0}, {1}}, 0.0, 300.0);
  plan.partition({{0}, {2}}, 100.0, 200.0);

  queue.schedule_at(150.0, [&] {
    EXPECT_TRUE(plan.partitioned(0, 1));
    EXPECT_TRUE(plan.partitioned(0, 2));
    EXPECT_FALSE(plan.partitioned(1, 2));  // never separated by one window
  });
  queue.schedule_at(250.0, [&] {
    EXPECT_TRUE(plan.partitioned(0, 1));   // long window still open
    EXPECT_FALSE(plan.partitioned(0, 2));  // short window healed
  });
  queue.run();
}

}  // namespace
}  // namespace hcube
