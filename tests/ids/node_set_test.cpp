// FlatNodeSet / FlatNodeMap: insertion-ordered semantics, and the at-rest
// representation behind assign_at_rest() — after the offline builder fills
// a set that way, lookups run off a linear scan (there is no open-addressed
// index) and the first mutation must build the index at its load-factor
// size in one step, not by doubling from the 8-slot seed (which would never
// terminate placement for a large set at rest).
#include "ids/node_set.h"

#include <gtest/gtest.h>

#include <vector>

#include "ids/node_id.h"

namespace hcube {
namespace {

std::vector<NodeId> make_ids(std::size_t n, std::uint64_t seed) {
  const IdParams params{16, 8};
  UniqueIdGenerator gen(params, seed);
  std::vector<NodeId> ids;
  ids.reserve(n);
  for (std::size_t i = 0; i < n; ++i) ids.push_back(gen.next());
  return ids;
}

TEST(FlatNodeSet, InsertContainsEraseKeepInsertionOrder) {
  const auto ids = make_ids(20, 0x5e7a);
  FlatNodeSet set;
  for (const NodeId& id : ids) ASSERT_TRUE(set.insert(id));
  for (const NodeId& id : ids) ASSERT_FALSE(set.insert(id));  // dedup
  ASSERT_EQ(set.size(), ids.size());

  std::size_t i = 0;
  for (const NodeId& id : set) ASSERT_EQ(id, ids[i++]);

  ASSERT_TRUE(set.erase(ids[7]));
  ASSERT_FALSE(set.erase(ids[7]));
  ASSERT_FALSE(set.contains(ids[7]));
  // Order of the survivors is unchanged.
  i = 0;
  for (const NodeId& id : set) {
    if (i == 7) ++i;  // skip the erased rank
    ASSERT_EQ(id, ids[i++]);
  }
}

TEST(FlatNodeSet, AssignAtRestIsExactFitAndAnswersLookups) {
  const auto ids = make_ids(67, 0xa7e57);  // a reverse-set-sized population
  const auto absent = make_ids(67, 0x0ddba11);
  FlatNodeSet set;
  for (const NodeId& id : ids) set.insert(id);

  const std::size_t before = set.bytes_used();
  std::vector<NodeId> items(ids);
  items.reserve(2 * ids.size());  // slack the assign must not keep
  set.assign_at_rest(std::move(items));
  // Exact-fit items + no index: strictly smaller than items-slack + index.
  ASSERT_LT(set.bytes_used(), before);
  ASSERT_EQ(set.bytes_used(), ids.size() * sizeof(NodeId));

  // Linear-scan lookups agree with the indexed answers.
  ASSERT_EQ(set.size(), ids.size());
  for (const NodeId& id : ids) ASSERT_TRUE(set.contains(id));
  for (const NodeId& id : absent) ASSERT_FALSE(set.contains(id));
  std::size_t i = 0;
  for (const NodeId& id : set) ASSERT_EQ(id, ids[i++]);
}

TEST(FlatNodeSet, InsertAtRestBuildsIndexAtLoadFactorSize) {
  // A set at rest far above the 8-slot seed capacity: the rebuild must size
  // the index for the full population in one step (a plain doubling from 8
  // would loop forever placing 200 items into 8 slots).
  const auto ids = make_ids(200, 0xb16);
  const auto more = make_ids(50, 0xf00d);
  FlatNodeSet set;
  set.assign_at_rest(ids);

  for (const NodeId& id : more) ASSERT_TRUE(set.insert(id));
  ASSERT_EQ(set.size(), ids.size() + more.size());
  for (const NodeId& id : ids) ASSERT_TRUE(set.contains(id));
  for (const NodeId& id : more) ASSERT_TRUE(set.contains(id));
  // Re-inserts still dedup through the rebuilt index.
  for (const NodeId& id : ids) ASSERT_FALSE(set.insert(id));
}

TEST(FlatNodeSet, EraseWhileAtRestStaysUnindexedAndCorrect) {
  const auto ids = make_ids(30, 0xdead);
  FlatNodeSet set;
  set.assign_at_rest(ids);

  ASSERT_TRUE(set.erase(ids[0]));
  ASSERT_TRUE(set.erase(ids[29]));
  // Still no index: only the (unshrunk) element vector is charged.
  ASSERT_EQ(set.bytes_used(), ids.size() * sizeof(NodeId));
  ASSERT_FALSE(set.contains(ids[0]));
  ASSERT_FALSE(set.contains(ids[29]));
  ASSERT_EQ(set.size(), 28u);
  std::size_t i = 1;
  for (const NodeId& id : set) ASSERT_EQ(id, ids[i++]);
  // ...and the set still accepts new members afterwards.
  const auto more = make_ids(5, 0xbeef);
  for (const NodeId& id : more) ASSERT_TRUE(set.insert(id));
  for (const NodeId& id : more) ASSERT_TRUE(set.contains(id));
}

TEST(FlatNodeMap, PutFindEraseKeepInsertionOrder) {
  const auto ids = make_ids(12, 0x3a9);
  FlatNodeMap<int> map;
  for (std::size_t i = 0; i < ids.size(); ++i)
    map.put(ids[i], static_cast<int>(i));
  map.put(ids[3], 333);  // overwrite keeps rank
  ASSERT_EQ(map.size(), ids.size());
  ASSERT_EQ(map.at(ids[3]), 333);

  std::size_t i = 0;
  for (const auto& [key, value] : map) ASSERT_EQ(key, ids[i++]);

  ASSERT_TRUE(map.erase(ids[5]));
  ASSERT_EQ(map.find(ids[5]), nullptr);
  ASSERT_EQ(map.size(), ids.size() - 1);
}

}  // namespace
}  // namespace hcube
