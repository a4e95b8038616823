#include "core/trace.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::make_ids;

TEST(MessageTrace, RecordsEveryMessageOfAJoin) {
  const IdParams params{4, 5};
  World world(params, 20);
  auto ids = make_ids(params, 16, 3);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 15);
  build_consistent_network(world.overlay, v);

  MessageTrace trace;
  trace.attach(world.overlay);
  world.schedule_join(ids[15], v[0], 0.0);
  world.drain();

  EXPECT_EQ(trace.size(), world.overlay.totals().messages);
  EXPECT_EQ(trace.total_bytes(), world.overlay.totals().bytes);
  EXPECT_EQ(trace.dropped(), 0u);
  // The first record of any join is the CpRstMsg to the gateway.
  const auto records = trace.all();
  ASSERT_FALSE(records.empty());
  EXPECT_EQ(records.front().type, MessageType::kCpRst);
  EXPECT_EQ(records.front().from, ids[15]);
  EXPECT_EQ(records.front().to, v[0]);
  // Timestamps are non-decreasing (hook fires in simulation order).
  for (std::size_t i = 1; i < records.size(); ++i)
    EXPECT_GE(records[i].time, records[i - 1].time);
}

TEST(MessageTrace, FiltersByNodeAndType) {
  const IdParams params{4, 5};
  World world(params, 20);
  auto ids = make_ids(params, 16, 5);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 15);
  build_consistent_network(world.overlay, v);
  MessageTrace trace;
  trace.attach(world.overlay);
  world.schedule_join(ids[15], v[2], 0.0);
  world.drain();

  const auto joiner_records = trace.involving(ids[15]);
  EXPECT_FALSE(joiner_records.empty());
  for (const auto& r : joiner_records)
    EXPECT_TRUE(r.from == ids[15] || r.to == ids[15]);

  const auto cprst = trace.of_type(MessageType::kCpRst);
  EXPECT_EQ(cprst.size(), trace.count_of(MessageType::kCpRst));
  for (const auto& r : cprst) EXPECT_EQ(r.type, MessageType::kCpRst);
}

TEST(MessageTrace, AttachChainsPreviousObserver) {
  // attach() must not silently disconnect an observer a test installed
  // first: both the existing hook and the trace see every message.
  const IdParams params{4, 5};
  World world(params, 20);
  auto ids = make_ids(params, 16, 13);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 15);
  build_consistent_network(world.overlay, v);

  std::uint64_t observed = 0;
  world.overlay.on_message = [&](const NodeId&, const NodeId&,
                                 const MessageBody&) { ++observed; };
  MessageTrace trace;
  trace.attach(world.overlay);

  world.schedule_join(ids[15], v[0], 0.0);
  world.drain();

  EXPECT_GT(observed, 0u);
  EXPECT_EQ(observed, world.overlay.totals().messages);
  EXPECT_EQ(trace.size(), world.overlay.totals().messages);
}

TEST(MessageTrace, TwoTracesBothRecord) {
  const IdParams params{4, 5};
  World world(params, 20);
  auto ids = make_ids(params, 16, 17);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 15);
  build_consistent_network(world.overlay, v);

  MessageTrace first, second;
  first.attach(world.overlay);
  second.attach(world.overlay);
  world.schedule_join(ids[15], v[0], 0.0);
  world.drain();

  EXPECT_EQ(first.size(), world.overlay.totals().messages);
  EXPECT_EQ(second.size(), world.overlay.totals().messages);
}

TEST(MessageTrace, RingBufferDropsOldest) {
  MessageTrace trace(/*capacity=*/4);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 2, 7);
  for (int i = 0; i < 10; ++i)
    trace.record(static_cast<SimTime>(i), ids[0], ids[1],
                 MessageType::kPing, 46);
  EXPECT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.dropped(), 6u);
  EXPECT_EQ(trace.count_of(MessageType::kPing), 10u);  // counts are global
  EXPECT_DOUBLE_EQ(trace.all().front().time, 6.0);     // oldest kept
}

TEST(MessageTrace, ToStringMentionsTypesAndOmissions) {
  MessageTrace trace(/*capacity=*/2);
  const IdParams params{4, 4};
  auto ids = make_ids(params, 2, 9);
  for (int i = 0; i < 5; ++i)
    trace.record(i, ids[0], ids[1], MessageType::kJoinWait, 50);
  const std::string s = trace.to_string(params);
  EXPECT_NE(s.find("JoinWaitMsg"), std::string::npos);
  EXPECT_NE(s.find("omitted"), std::string::npos);
}

TEST(MessageTrace, ClearResets) {
  MessageTrace trace;
  const IdParams params{4, 4};
  auto ids = make_ids(params, 2, 11);
  trace.record(1.0, ids[0], ids[1], MessageType::kPong, 46);
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.total_bytes(), 0u);
  EXPECT_EQ(trace.count_of(MessageType::kPong), 0u);
}

}  // namespace
}  // namespace hcube
