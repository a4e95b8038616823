#include "dht/object_store.h"

#include <gtest/gtest.h>

#include "core/builder.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::make_ids;

// Builds "prefix<i>" without operator+(const char*, std::string&&), which
// trips a GCC 12 -Wrestrict false positive under -Werror.
std::string key(const char* prefix, int i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

class ObjectStoreTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kNodes = 40;
  const IdParams params_{4, 6};

  ObjectStoreTest() : world_(params_, kNodes) {
    ids_ = make_ids(params_, kNodes, 8);
    build_consistent_network(world_.overlay, ids_);
  }

  World world_;
  std::vector<NodeId> ids_;
};

TEST_F(ObjectStoreTest, PublishThenLookupFromAnywhere) {
  ObjectStore store(view_of(world_.overlay));
  const auto pub = store.publish(ids_[0], "song.mp3", "payload-bytes");
  ASSERT_TRUE(pub.success);
  for (std::size_t i = 0; i < ids_.size(); i += 5) {
    std::string value;
    const auto got = store.lookup(ids_[i], "song.mp3", &value);
    ASSERT_TRUE(got.success) << "from " << ids_[i].to_string(params_);
    EXPECT_EQ(value, "payload-bytes");
    EXPECT_EQ(got.root, pub.root);  // deterministic location (P1)
  }
}

TEST_F(ObjectStoreTest, MissingObjectFailsButResolvesRoot) {
  ObjectStore store(view_of(world_.overlay));
  const auto got = store.lookup(ids_[1], "never-published");
  EXPECT_FALSE(got.success);
  EXPECT_TRUE(got.root.is_valid());
}

TEST_F(ObjectStoreTest, PublishOverwrites) {
  ObjectStore store(view_of(world_.overlay));
  ASSERT_TRUE(store.publish(ids_[0], "k", "v1").success);
  ASSERT_TRUE(store.publish(ids_[3], "k", "v2").success);
  std::string value;
  ASSERT_TRUE(store.lookup(ids_[9], "k", &value).success);
  EXPECT_EQ(value, "v2");
  EXPECT_EQ(store.objects_stored(), 1u);
}

TEST_F(ObjectStoreTest, HopsBoundedByDigits) {
  ObjectStore store(view_of(world_.overlay));
  for (int i = 0; i < 50; ++i) {
    const auto r =
        store.publish(ids_[i % ids_.size()], key("obj", i), "v");
    ASSERT_TRUE(r.success);
    EXPECT_LE(r.hops, params_.num_digits);
  }
}

TEST_F(ObjectStoreTest, LoadSpreadsAcrossNodes) {
  // Property P3 (load balance): with many objects, no node should hold
  // almost everything. This is a sanity bound, not a tight one — root
  // assignment is proportional to ID-space coverage.
  ObjectStore store(view_of(world_.overlay));
  constexpr int kObjects = 400;
  for (int i = 0; i < kObjects; ++i)
    ASSERT_TRUE(
        store.publish(ids_[0], key("obj", i), "v").success);
  EXPECT_EQ(store.objects_stored(), kObjects);
  std::size_t peak = 0, roots = 0;
  for (const NodeId& id : ids_) {
    peak = std::max(peak, store.load_of(id));
    if (store.load_of(id) > 0) ++roots;
  }
  EXPECT_LT(peak, kObjects / 4u);
  EXPECT_GT(roots, ids_.size() / 4);
}

TEST_F(ObjectStoreTest, ObjectIdDeterministic) {
  ObjectStore store(view_of(world_.overlay));
  EXPECT_EQ(store.object_id("abc"), store.object_id("abc"));
  EXPECT_NE(store.object_id("abc"), store.object_id("abd"));
}

TEST(ObjectStoreRebalance, ObjectsFollowTheirRootsAcrossJoins) {
  const IdParams params{4, 6};
  World world(params, 80);
  auto ids = make_ids(params, 80, 77);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 30);
  const std::vector<NodeId> w(ids.begin() + 30, ids.end());
  build_consistent_network(world.overlay, v);

  ObjectStore store(view_of(world.overlay));
  constexpr int kObjects = 200;
  for (int i = 0; i < kObjects; ++i)
    ASSERT_TRUE(store.publish(v[0], key("obj", i), "v").success);

  // 50 joins shift many surrogate roots.
  Rng rng(6);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());

  const std::size_t moved = store.rebalance(view_of(world.overlay));
  EXPECT_GT(moved, 0u);  // new nodes must take over some roots
  EXPECT_EQ(store.objects_stored(), kObjects);

  // Every object is findable from everywhere, no republish needed.
  for (int i = 0; i < kObjects; i += 13) {
    for (std::size_t p = 0; p < ids.size(); p += 11) {
      std::string value;
      ASSERT_TRUE(
          store.lookup(ids[p], key("obj", i), &value).success);
      EXPECT_EQ(value, "v");
    }
  }
}

TEST(ObjectStoreRebalance, SurvivesLeaves) {
  const IdParams params{4, 6};
  World world(params, 40);
  auto ids = make_ids(params, 40, 88);
  build_consistent_network(world.overlay, ids);
  ObjectStore store(view_of(world.overlay));
  for (int i = 0; i < 100; ++i)
    ASSERT_TRUE(store.publish(ids[0], key("o", i), "v").success);

  // The heaviest-loaded node departs; its objects must find new roots.
  NodeId heaviest = ids[0];
  for (const NodeId& id : ids)
    if (store.load_of(id) > store.load_of(heaviest)) heaviest = id;
  ASSERT_GT(store.load_of(heaviest), 0u);
  leave_and_drain(world, heaviest);
  ASSERT_TRUE(check_consistency(view_of(world.overlay)).consistent());

  const std::size_t moved = store.rebalance(view_of(world.overlay));
  EXPECT_GE(moved, 1u);
  EXPECT_EQ(store.load_of(heaviest), 0u);
  EXPECT_EQ(store.objects_stored(), 100u);
  for (int i = 0; i < 100; i += 9) {
    NodeId origin = ids[1] == heaviest ? ids[2] : ids[1];
    EXPECT_TRUE(store.lookup(origin, key("o", i)).success);
  }
}

TEST(ObjectStoreRebalance, NoMembershipChangeNoMoves) {
  const IdParams params{4, 5};
  World world(params, 20);
  auto ids = make_ids(params, 20, 99);
  build_consistent_network(world.overlay, ids);
  ObjectStore store(view_of(world.overlay));
  for (int i = 0; i < 50; ++i)
    ASSERT_TRUE(store.publish(ids[0], key("k", i), "v").success);
  EXPECT_EQ(store.rebalance(view_of(world.overlay)), 0u);
}

TEST(ObjectStoreAfterJoins, LookupsSurviveMembershipGrowth) {
  // Publish on the grown network: roots must be deterministic on the new
  // membership too (tables are consistent after the join wave).
  const IdParams params{4, 6};
  World world(params, 60);
  auto ids = make_ids(params, 60, 44);
  const std::vector<NodeId> v(ids.begin(), ids.begin() + 30);
  const std::vector<NodeId> w(ids.begin() + 30, ids.end());
  build_consistent_network(world.overlay, v);
  Rng rng(4);
  join_concurrently(world, w, v, rng);
  ASSERT_TRUE(world.overlay.all_in_system());

  ObjectStore store(view_of(world.overlay));
  ASSERT_TRUE(store.publish(w[0], "post-join-object", "value").success);
  std::string value;
  EXPECT_TRUE(store.lookup(v[0], "post-join-object", &value).success);
  EXPECT_EQ(value, "value");
}

}  // namespace
}  // namespace hcube
