// Metrics core: log-histogram bucket geometry, merge associativity,
// quantile monotonicity, the counter reset-on-restart semantics of a
// crash-recovered node, obs::collect's per-join histograms, and the JSON
// export against the checked-in golden schema.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/builder.h"
#include "obs/collect.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "util/rng.h"

namespace hcube::obs {
namespace {

using hcube::testing::make_ids;
using hcube::testing::World;

// ---- LogHistogram ----

TEST(LogHistogram, BucketBoundaries) {
  // Bucket 0 is [0, 1); bucket i >= 1 is [2^(i-1), 2^i).
  EXPECT_EQ(0u, LogHistogram::bucket_of(0.0));
  EXPECT_EQ(0u, LogHistogram::bucket_of(0.5));
  EXPECT_EQ(0u, LogHistogram::bucket_of(-3.0));  // clamped
  EXPECT_EQ(1u, LogHistogram::bucket_of(1.0));
  EXPECT_EQ(1u, LogHistogram::bucket_of(1.99));
  EXPECT_EQ(2u, LogHistogram::bucket_of(2.0));
  EXPECT_EQ(2u, LogHistogram::bucket_of(3.0));
  EXPECT_EQ(3u, LogHistogram::bucket_of(4.0));
  EXPECT_EQ(11u, LogHistogram::bucket_of(1024.0));

  for (std::size_t i = 1; i < 50; ++i) {
    EXPECT_EQ(std::ldexp(1.0, static_cast<int>(i) - 1),
              LogHistogram::bucket_lo(i));
    EXPECT_EQ(std::ldexp(1.0, static_cast<int>(i)),
              LogHistogram::bucket_hi(i));
    // The lower edge lands in the bucket; the upper edge in the next.
    EXPECT_EQ(i, LogHistogram::bucket_of(LogHistogram::bucket_lo(i)));
    EXPECT_EQ(i + 1, LogHistogram::bucket_of(LogHistogram::bucket_hi(i)));
  }
  // Far beyond 2^63: absorbed by the last bucket, no overflow.
  EXPECT_EQ(LogHistogram::kBuckets - 1, LogHistogram::bucket_of(1e300));
}

TEST(LogHistogram, MergeIsAssociative) {
  Rng rng(7);
  std::vector<LogHistogram> parts(3);
  for (LogHistogram& h : parts)
    for (int i = 0; i < 200; ++i) h.observe(rng.next_double() * 1e6);

  LogHistogram left;  // (a + b) + c
  left.merge_from(parts[0]);
  left.merge_from(parts[1]);
  left.merge_from(parts[2]);

  LogHistogram bc;  // a + (b + c)
  bc.merge_from(parts[1]);
  bc.merge_from(parts[2]);
  LogHistogram right;
  right.merge_from(parts[0]);
  right.merge_from(bc);

  EXPECT_EQ(left.count(), right.count());
  EXPECT_DOUBLE_EQ(left.sum(), right.sum());
  EXPECT_EQ(left.min(), right.min());
  EXPECT_EQ(left.max(), right.max());
  for (std::size_t i = 0; i < LogHistogram::kBuckets; ++i)
    EXPECT_EQ(left.bucket(i), right.bucket(i)) << "bucket " << i;
}

TEST(LogHistogram, QuantileIsMonotoneAndClampedToMax) {
  Rng rng(11);
  LogHistogram h;
  for (int i = 0; i < 1000; ++i) h.observe(rng.next_double() * 5000.0);

  double prev = -1.0;
  for (int step = 0; step <= 100; ++step) {
    const double q = static_cast<double>(step) / 100.0;
    const double v = h.quantile(q);
    EXPECT_GE(v, prev) << "quantile not monotone at q=" << q;
    prev = v;
  }
  EXPECT_EQ(h.max(), h.quantile(1.0));
  // The estimate is exact to within one octave: the true quantile's bucket
  // upper edge bounds it from above, its lower edge from below.
  EXPECT_LE(h.quantile(0.5), h.max());
  EXPECT_GE(h.quantile(0.5), 0.0);

  LogHistogram empty;
  EXPECT_EQ(0.0, empty.quantile(0.5));
}

// ---- MetricsRegistry ----

TEST(MetricsRegistry, HotPathIdsAndNamedAccessors) {
  MetricsRegistry reg;
  const auto c = reg.counter("net.messages");
  const auto g = reg.gauge("overlay.nodes");
  const auto h = reg.histogram("join.duration_ms");
  reg.add(c);
  reg.add(c, 9);
  reg.set(g, 128.0);
  reg.observe(h, 250.0);

  EXPECT_EQ(10u, reg.counter_value("net.messages"));
  EXPECT_EQ(128.0, reg.gauge_value("overlay.nodes"));
  ASSERT_NE(nullptr, reg.histogram_named("join.duration_ms"));
  EXPECT_EQ(1u, reg.histogram_named("join.duration_ms")->count());
  // Re-registration returns the same id; a kind clash would CHECK-fail.
  EXPECT_EQ(c, reg.counter("net.messages"));
}

TEST(MetricsRegistry, MergeAccumulatesCountersAndHistograms) {
  MetricsRegistry a, b;
  a.add_named("net.messages", 5);
  b.add_named("net.messages", 7);
  b.add_named("net.bytes", 100);
  a.set_named("overlay.nodes", 3.0);
  b.set_named("overlay.nodes", 9.0);
  a.observe_named("join.duration_ms", 10.0);
  b.observe_named("join.duration_ms", 1000.0);

  a.merge_from(b);
  EXPECT_EQ(12u, a.counter_value("net.messages"));
  EXPECT_EQ(100u, a.counter_value("net.bytes"));
  EXPECT_EQ(9.0, a.gauge_value("overlay.nodes"));  // gauges take theirs
  EXPECT_EQ(2u, a.histogram_named("join.duration_ms")->count());
  EXPECT_EQ(1000.0, a.histogram_named("join.duration_ms")->max());
}

TEST(MetricsRegistry, ResetZeroesValuesButKeepsIds) {
  MetricsRegistry reg;
  const auto c = reg.counter("net.messages");
  reg.add(c, 42);
  reg.observe_named("join.duration_ms", 3.0);
  reg.reset();
  EXPECT_EQ(0u, reg.counter_value("net.messages"));
  EXPECT_EQ(0u, reg.histogram_named("join.duration_ms")->count());
  EXPECT_EQ(c, reg.counter("net.messages"));  // registration survives
  reg.add(c);
  EXPECT_EQ(1u, reg.counter_value("net.messages"));
}

// A restarted node must not carry pre-crash join counters into its new
// generation: the new incarnation's CpRst count starts at one (the rejoin's
// own first message), not wherever the dead attempt left off — while the
// watchdog-restart budget survives.
TEST(MetricsRegistry, CounterResetOnRestartSemantics) {
  const IdParams params{16, 8};
  World world(params, 20);
  const auto ids = make_ids(params, 17, 31);
  const std::vector<NodeId> seeds(ids.begin(), ids.begin() + 16);
  build_consistent_network(world.overlay, seeds);
  const NodeId& joiner = ids[16];

  // Crash mid-copy-walk: the first attempt has sent its CpRst (plus
  // whatever else the walk reached) when the crash lands.
  world.schedule_join(joiner, seeds[0], 0.0);
  world.net.driver().schedule_action(30.0,
                                     [&] { world.crash(joiner); });
  world.drain();
  ASSERT_TRUE(world.overlay.at(joiner).is_crashed());
  ASSERT_GE(world.overlay.at(joiner).join_stats().sent_of(MessageType::kCpRst),
            1u);

  // Restart sends the rejoin's CpRst synchronously: if pre-crash counters
  // leaked into the new incarnation this would read >= 2.
  world.restart(joiner, seeds[1]);
  EXPECT_EQ(
      1u, world.overlay.at(joiner).join_stats().sent_of(MessageType::kCpRst));

  world.drain();
  const Node& node = world.overlay.at(joiner);
  EXPECT_TRUE(node.is_s_node());
  // The fresh incarnation respects the per-attempt Theorem 3 budget.
  EXPECT_LE(node.join_stats().copy_plus_wait(), params.num_digits + 1);
}

// Seeds and builder-made members are stamped with t_begin == t_end but
// never ran the join protocol: obs::collect's per-join histograms count the
// joiners alone, and no 0 ms "join" drags the duration quantiles down.
TEST(Collect, PerJoinHistogramsCountJoinersOnly) {
  const IdParams params{16, 8};
  World world(params, 20);
  const auto ids = make_ids(params, 20, 37);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 16);
  const std::vector<NodeId> w(ids.begin() + 16, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(5);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());

  MetricsRegistry reg;
  collect(world.overlay, reg);
  for (const char* name :
       {"join.duration_ms", "join.noti_sent", "join.copy_wait_sent"}) {
    ASSERT_NE(nullptr, reg.histogram_named(name)) << name;
    EXPECT_EQ(w.size(), reg.histogram_named(name)->count()) << name;
  }
  // Every join costs at least one round trip (5 ms minimum per hop).
  EXPECT_GE(reg.histogram_named("join.duration_ms")->min(), 10.0);
  EXPECT_GE(reg.histogram_named("join.copy_wait_sent")->min(), 2.0);
}

// ---- JSON export ----

MetricsRegistry golden_registry() {
  MetricsRegistry reg;
  reg.add_named("net.messages", 1234);
  reg.add_named("net.bytes", 567890);
  reg.set_named("overlay.nodes", 128.0);
  reg.set_named("bench.msgs_per_sec", 2.5e6);
  for (int i = 0; i < 16; ++i)
    reg.observe_named("join.duration_ms", static_cast<double>(1 << i));
  return reg;
}

TEST(MetricsJson, RoundTripsExactly) {
  const MetricsRegistry reg = golden_registry();
  const std::string json = reg.to_json();
  std::string error;
  const auto back = MetricsRegistry::from_json(json, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(json, back->to_json());
}

TEST(MetricsJson, MatchesGoldenSchema) {
  const std::string path = std::string(OBS_GOLDEN_DIR) + "/golden_metrics.json";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path;
  std::ostringstream content;
  content << in.rdbuf();
  std::string golden = content.str();
  while (!golden.empty() && (golden.back() == '\n' || golden.back() == '\r'))
    golden.pop_back();

  EXPECT_EQ(golden, golden_registry().to_json())
      << "the hcube.metrics.v1 export schema changed; if that is "
         "intentional, bump the schema version and regenerate the golden";
}

TEST(MetricsJson, RejectsBadDocuments) {
  std::string error;
  EXPECT_FALSE(MetricsRegistry::from_json("{", &error).has_value());
  EXPECT_FALSE(MetricsRegistry::from_json("{}", &error).has_value());
  EXPECT_FALSE(
      MetricsRegistry::from_json(
          R"({"schema":"hcube.metrics.v2","metrics":[]})", &error)
          .has_value());
  EXPECT_FALSE(
      MetricsRegistry::from_json(
          R"({"schema":"hcube.metrics.v1","metrics":[{"name":"BAD","kind":"counter","value":1}]})",
          &error)
          .has_value());
  EXPECT_TRUE(
      MetricsRegistry::from_json(R"({"schema":"hcube.metrics.v1","metrics":[]})")
          .has_value());
}

}  // namespace
}  // namespace hcube::obs
