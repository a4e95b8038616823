// Model-based equivalence for the SoA NeighborTable: a randomized op
// sequence is applied in lockstep to
//
//   (a) a NeighborTable with private exact-fit column storage,
//   (b) a NeighborTable whose columns live in a shared Arena (the Overlay
//       configuration), and
//   (c) a deliberately naive array-of-structs reference model,
//
// and every observable — entries, states, hosts, fill count, backups,
// reverse set, fill order, snapshots — must agree at every
// step. This is the refactor's safety net: any divergence between the
// column layout and the obvious semantics is a bug in the columns.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/neighbor_table.h"
#include "test_util.h"
#include "util/rng.h"

namespace hcube {
namespace {

constexpr std::size_t kMaxBackups = 3;

// The reference model: one struct per entry, std::vectors everywhere,
// written for obviousness rather than speed.
struct ModelEntry {
  NodeId node;  // invalid = empty
  NeighborState state = NeighborState::kT;
  HostId host = kNoHost;
  std::vector<NodeId> backups;
};

struct Model {
  explicit Model(const IdParams& p, NodeId o)
      : params(p),
        owner(o),
        entries(static_cast<std::size_t>(p.num_digits) * p.base) {}

  ModelEntry& at(std::uint32_t level, std::uint32_t digit) {
    return entries[static_cast<std::size_t>(level) * params.base + digit];
  }

  void set(std::uint32_t level, std::uint32_t digit, const NodeId& node,
           NeighborState state, HostId host) {
    ModelEntry& e = at(level, digit);
    e.node = node;
    e.state = state;
    e.host = host;
  }

  bool offer_backup(std::uint32_t level, std::uint32_t digit,
                    const NodeId& node) {
    ModelEntry& e = at(level, digit);
    if (node == owner || node == e.node) return false;
    if (std::find(e.backups.begin(), e.backups.end(), node) !=
        e.backups.end())
      return false;
    if (e.backups.size() >= kMaxBackups) return false;
    e.backups.push_back(node);
    return true;
  }

  IdParams params;
  NodeId owner;
  std::vector<ModelEntry> entries;  // level-major
  std::vector<NodeId> reverse;      // insertion order
};

class SoaEquivalenceTest : public ::testing::Test {
 protected:
  static constexpr IdParams kParams{4, 5};

  SoaEquivalenceTest()
      : owner_(testing::id_of("21233", kParams)),
        self_table_(kParams, owner_),
        arena_table_(kParams, owner_, &arena_),
        model_(kParams, owner_),
        rng_(0x50a) {}

  // A random ID legal for entry (level, digit): shares `level` digits of
  // suffix with the owner and has digit(level) == digit.
  NodeId random_member(std::uint32_t level, std::uint32_t digit) {
    std::vector<Digit> digits(kParams.num_digits);
    for (std::uint32_t i = 0; i < kParams.num_digits; ++i)
      digits[i] = static_cast<Digit>(rng_.next_below(kParams.base));
    for (std::uint32_t i = 0; i < level; ++i) digits[i] = owner_.digit(i);
    digits[level] = static_cast<Digit>(digit);
    return NodeId(digits, kParams);
  }

  void check_agreement() {
    const NeighborTable* tables[] = {&self_table_, &arena_table_};
    for (const NeighborTable* t : tables) {
      ASSERT_EQ(t->filled_count(), count_filled_model());
      for (std::uint32_t i = 0; i < kParams.num_digits; ++i) {
        for (std::uint32_t j = 0; j < kParams.base; ++j) {
          const ModelEntry& e = model_.at(i, j);
          ASSERT_EQ(t->is_empty(i, j), !e.node.is_valid()) << i << "," << j;
          if (e.node.is_valid()) {
            ASSERT_EQ(*t->neighbor(i, j), e.node) << i << "," << j;
            ASSERT_EQ(t->state(i, j), e.state) << i << "," << j;
            ASSERT_EQ(t->host(i, j), e.host) << i << "," << j;
          }
          const std::span<const NodeId> b = t->backups(i, j);
          ASSERT_EQ(std::vector<NodeId>(b.begin(), b.end()), e.backups)
              << i << "," << j;
        }
      }
      // Reverse set: same membership, same insertion order.
      ASSERT_EQ(t->reverse_neighbors().size(), model_.reverse.size());
      std::size_t k = 0;
      for (const NodeId& v : t->reverse_neighbors())
        ASSERT_EQ(v, model_.reverse[k++]);
      // Snapshot agrees with for_each_filled and with the model.
      const TableSnapshot snap = t->snapshot_full();
      std::size_t idx = 0;
      t->for_each_filled([&](std::uint32_t i, std::uint32_t j,
                             const NodeId& n, NeighborState s) {
        ASSERT_EQ(model_.at(i, j).node, n);
        ASSERT_EQ(model_.at(i, j).state, s);
        ASSERT_LT(idx, snap.entries.size());
        ASSERT_EQ(snap.entries[idx].node, n);
        ++idx;
      });
      ASSERT_EQ(idx, snap.entries.size());
    }
  }

  std::size_t count_filled_model() const {
    std::size_t n = 0;
    for (const ModelEntry& e : model_.entries)
      if (e.node.is_valid()) ++n;
    return n;
  }

  NodeId owner_;
  Arena arena_;
  NeighborTable self_table_;
  NeighborTable arena_table_;
  Model model_;
  Rng rng_;
};

TEST_F(SoaEquivalenceTest, RandomOpSequenceStaysEquivalent) {
  for (int step = 0; step < 3000; ++step) {
    const auto level =
        static_cast<std::uint32_t>(rng_.next_below(kParams.num_digits));
    const auto digit =
        static_cast<std::uint32_t>(rng_.next_below(kParams.base));
    switch (rng_.next_below(8)) {
      case 0:
      case 1: {  // fill / overwrite
        const NodeId n = random_member(level, digit);
        const auto st =
            rng_.next_bool(0.5) ? NeighborState::kS : NeighborState::kT;
        const HostId h = static_cast<HostId>(rng_.next_below(100));
        self_table_.set(level, digit, n, st, h);
        arena_table_.set(level, digit, n, st, h);
        model_.set(level, digit, n, st, h);
        break;
      }
      case 2: {  // clear
        self_table_.clear(level, digit);
        arena_table_.clear(level, digit);
        ModelEntry& e = model_.at(level, digit);
        if (e.node.is_valid()) {
          e.node = NodeId();
          e.host = kNoHost;
          e.state = NeighborState::kT;
        }
        break;
      }
      case 3: {  // offer a backup
        const NodeId n = random_member(level, digit);
        const bool a = self_table_.offer_backup(level, digit, n, kMaxBackups);
        const bool b = arena_table_.offer_backup(level, digit, n, kMaxBackups);
        const bool m = model_.offer_backup(level, digit, n);
        ASSERT_EQ(a, m);
        ASSERT_EQ(b, m);
        break;
      }
      case 4: {  // purge one backup (maybe absent)
        const ModelEntry& e = model_.at(level, digit);
        const NodeId victim = e.backups.empty()
                                  ? random_member(level, digit)
                                  : e.backups[rng_.next_below(
                                        e.backups.size())];
        self_table_.purge_backup(level, digit, victim);
        arena_table_.purge_backup(level, digit, victim);
        ModelEntry& me = model_.at(level, digit);
        me.backups.erase(
            std::remove(me.backups.begin(), me.backups.end(), victim),
            me.backups.end());
        break;
      }
      case 5: {  // promote the first backup
        const NodeId a = self_table_.take_first_backup(level, digit);
        const NodeId b = arena_table_.take_first_backup(level, digit);
        ModelEntry& e = model_.at(level, digit);
        NodeId m;
        if (!e.backups.empty()) {
          m = e.backups.front();
          e.backups.erase(e.backups.begin());
        }
        ASSERT_EQ(a.is_valid(), m.is_valid());
        ASSERT_EQ(b.is_valid(), m.is_valid());
        if (m.is_valid()) {
          ASSERT_EQ(a, m);
          ASSERT_EQ(b, m);
        }
        break;
      }
      case 6: {  // register a reverse neighbor
        const NodeId v = random_member(level, digit);
        self_table_.add_reverse_neighbor(v);
        arena_table_.add_reverse_neighbor(v);
        if (v != owner_ &&
            std::find(model_.reverse.begin(), model_.reverse.end(), v) ==
                model_.reverse.end())
          model_.reverse.push_back(v);
        break;
      }
      case 7: {  // drop a reverse neighbor (maybe absent)
        const NodeId v = model_.reverse.empty()
                             ? random_member(level, digit)
                             : model_.reverse[rng_.next_below(
                                   model_.reverse.size())];
        self_table_.remove_reverse_neighbor(v);
        arena_table_.remove_reverse_neighbor(v);
        model_.reverse.erase(
            std::remove(model_.reverse.begin(), model_.reverse.end(), v),
            model_.reverse.end());
        break;
      }
    }
    if (step % 250 == 0) check_agreement();
  }
  check_agreement();

  // reset() must return both tables to the pristine state in place.
  self_table_.reset();
  arena_table_.reset();
  model_ = Model(kParams, owner_);
  check_agreement();
}

TEST_F(SoaEquivalenceTest, StateUpdateAndMemoHost) {
  const NodeId n = random_member(1, 0);
  self_table_.set(1, 0, n, NeighborState::kT);
  arena_table_.set(1, 0, n, NeighborState::kT);
  model_.set(1, 0, n, NeighborState::kT, kNoHost);
  check_agreement();

  self_table_.set_state(1, 0, NeighborState::kS);
  arena_table_.set_state(1, 0, NeighborState::kS);
  model_.at(1, 0).state = NeighborState::kS;
  check_agreement();

  self_table_.memo_host(1, 0, HostId{42});
  arena_table_.memo_host(1, 0, HostId{42});
  model_.at(1, 0).host = HostId{42};
  check_agreement();
}

}  // namespace
}  // namespace hcube
