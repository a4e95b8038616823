#include "core/neighbor_table.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace hcube {
namespace {

using testing::id_of;

const IdParams kQuad5{4, 5};

class NeighborTableTest : public ::testing::Test {
 protected:
  NeighborTableTest() : owner_(id_of("21233", kQuad5)), table_(kQuad5, owner_) {}

  NodeId owner_;
  NeighborTable table_;
};

TEST_F(NeighborTableTest, StartsEmpty) {
  EXPECT_EQ(table_.filled_count(), 0u);
  for (std::uint32_t i = 0; i < 5; ++i)
    for (std::uint32_t j = 0; j < 4; ++j)
      EXPECT_TRUE(table_.is_empty(i, j));
}

TEST_F(NeighborTableTest, SetAndGet) {
  // (1, 0)-entry of 21233 needs suffix "03": 13103 has it.
  const NodeId n = id_of("13103", kQuad5);
  table_.set(1, 0, n, NeighborState::kT);
  ASSERT_FALSE(table_.is_empty(1, 0));
  EXPECT_EQ(*table_.neighbor(1, 0), n);
  EXPECT_EQ(table_.state(1, 0), NeighborState::kT);
  EXPECT_TRUE(table_.holds(1, 0, n));
  EXPECT_FALSE(table_.holds(1, 0, owner_));
  EXPECT_EQ(table_.filled_count(), 1u);
}

TEST_F(NeighborTableTest, SetRejectsWrongSuffix) {
  // (2, 0)-entry needs suffix "033"; 13103 ends in "103".
  EXPECT_DEATH(table_.set(2, 0, id_of("13103", kQuad5), NeighborState::kT),
               "suffix");
}

TEST_F(NeighborTableTest, SetRejectsWrongDigit) {
  // 13103 has digit(1) = 0, so it cannot sit in entry (1, 2).
  EXPECT_DEATH(table_.set(1, 2, id_of("13103", kQuad5), NeighborState::kT),
               "digit");
}

TEST_F(NeighborTableTest, OwnerFitsItsOwnEntries) {
  for (std::uint32_t i = 0; i < 5; ++i)
    table_.set(i, owner_.digit(i), owner_, NeighborState::kS);
  EXPECT_EQ(table_.filled_count(), 5u);
  EXPECT_TRUE(table_.holds(0, 3, owner_));
  EXPECT_TRUE(table_.holds(4, 2, owner_));
}

TEST_F(NeighborTableTest, SetStateRequiresFilledEntry) {
  EXPECT_DEATH(table_.set_state(0, 0, NeighborState::kS), "empty");
  table_.set(0, 0, id_of("00000", kQuad5), NeighborState::kT);
  table_.set_state(0, 0, NeighborState::kS);
  EXPECT_EQ(table_.state(0, 0), NeighborState::kS);
}

TEST_F(NeighborTableTest, OverwriteSameEntryKeepsCount) {
  table_.set(0, 0, id_of("00000", kQuad5), NeighborState::kT);
  table_.set(0, 0, id_of("11110", kQuad5), NeighborState::kS);
  EXPECT_EQ(table_.filled_count(), 1u);
  EXPECT_TRUE(table_.holds(0, 0, id_of("11110", kQuad5)));
}

TEST_F(NeighborTableTest, ForEachFilledVisitsInOrder) {
  table_.set(0, 0, id_of("00000", kQuad5), NeighborState::kT);
  table_.set(1, 0, id_of("13103", kQuad5), NeighborState::kS);
  table_.set(0, 2, id_of("11112", kQuad5), NeighborState::kT);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> visited;
  table_.for_each_filled([&](std::uint32_t i, std::uint32_t j, const NodeId&,
                             NeighborState) { visited.push_back({i, j}); });
  ASSERT_EQ(visited.size(), 3u);
  EXPECT_EQ(visited[0], (std::pair<std::uint32_t, std::uint32_t>{0, 0}));
  EXPECT_EQ(visited[1], (std::pair<std::uint32_t, std::uint32_t>{0, 2}));
  EXPECT_EQ(visited[2], (std::pair<std::uint32_t, std::uint32_t>{1, 0}));
}

TEST_F(NeighborTableTest, SnapshotLevels) {
  table_.set(0, 0, id_of("00000", kQuad5), NeighborState::kT);
  table_.set(1, 0, id_of("13103", kQuad5), NeighborState::kS);
  table_.set(3, 0, id_of("10233", kQuad5), NeighborState::kS);
  EXPECT_EQ(table_.snapshot_full().size(), 3u);
  EXPECT_EQ(table_.snapshot(1, 3).size(), 2u);
  EXPECT_EQ(table_.snapshot(2, 2).size(), 0u);
  const auto snap = table_.snapshot(1, 1);
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap.entries[0].level, 1);
  EXPECT_EQ(snap.entries[0].digit, 0);
  EXPECT_EQ(snap.entries[0].state, NeighborState::kS);
}

TEST_F(NeighborTableTest, FilledBitvecMatchesEntries) {
  table_.set(0, 1, id_of("00001", kQuad5), NeighborState::kT);
  table_.set(2, 2, id_of("11233", kQuad5), NeighborState::kT);
  const BitVec bits = table_.filled_bitvec();
  EXPECT_EQ(bits.size(), 20u);  // 5 levels * 4 digits
  EXPECT_EQ(bits.popcount(), 2u);
  EXPECT_TRUE(bits.get(0 * 4 + 1));
  EXPECT_TRUE(bits.get(2 * 4 + 2));
}

TEST_F(NeighborTableTest, ReverseNeighbors) {
  const NodeId v = id_of("13103", kQuad5);
  table_.add_reverse_neighbor(v);
  table_.add_reverse_neighbor(v);  // idempotent
  table_.add_reverse_neighbor(owner_);  // self is ignored
  EXPECT_EQ(table_.reverse_neighbors().size(), 1u);
  EXPECT_TRUE(table_.reverse_neighbors().contains(v));
}

TEST_F(NeighborTableTest, ToStringShowsEntries) {
  table_.set(1, 0, id_of("13103", kQuad5), NeighborState::kS);
  const std::string s = table_.to_string();
  EXPECT_NE(s.find("21233"), std::string::npos);
  EXPECT_NE(s.find("13103"), std::string::npos);
  EXPECT_NE(s.find("/S"), std::string::npos);
}

}  // namespace
}  // namespace hcube
