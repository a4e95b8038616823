// The offline builder against per-entry references built from the same
// suffix trie: each entry holds the first-inserted member of its suffix
// class, backups follow in first-offer order, and every reverse set holds
// exactly what one insert per filled entry, storers in host order, would
// give it — order included — already at rest and exact-fit.
#include "core/builder.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ids/suffix_trie.h"
#include "test_util.h"

namespace hcube {
namespace {

using testing::World;
using testing::make_ids;

struct Shape {
  std::uint32_t base, digits;
  std::size_t n;
};

const Shape kShapes[] = {{2, 3, 8}, {4, 4, 60}, {16, 8, 5000},
                         {2, 3, 1}, {4, 4, 1},  {16, 8, 1}};

void check_against_reference(const Shape& shape, std::uint32_t backups) {
  SCOPED_TRACE(::testing::Message() << "b=" << shape.base << " d="
                                    << shape.digits << " n=" << shape.n
                                    << " backups=" << backups);
  const IdParams params{shape.base, shape.digits};
  ProtocolOptions options;
  options.backups_per_entry = backups;
  World world(params, static_cast<std::uint32_t>(shape.n), options);
  const auto ids = make_ids(params, shape.n, 42);
  build_consistent_network(world.overlay, ids);
  const Overlay& overlay = world.overlay;
  ASSERT_EQ(overlay.size(), ids.size());

  SuffixTrie trie(params);
  for (const NodeId& id : ids) trie.insert(id);

  std::vector<FlatNodeSet> reverse(ids.size());
  for (std::size_t h = 0; h < ids.size(); ++h) {
    const NodeId& x = ids[h];
    const Node& node = *overlay.nodes()[h];
    ASSERT_EQ(node.id(), x);  // registered in input order
    ASSERT_TRUE(node.is_s_node());
    for (std::uint32_t i = 0; i < params.num_digits; ++i) {
      for (std::uint32_t j = 0; j < params.base; ++j) {
        const NodeId* got = node.table().neighbor(i, j);
        if (j == x.digit(i)) {
          ASSERT_TRUE(got != nullptr && *got == x);
          continue;
        }
        Suffix want = x.suffix_of_len(i);
        want.push_back(static_cast<Digit>(j));
        const auto first = trie.any_with_suffix(want);
        ASSERT_EQ(got != nullptr, first.has_value()) << i << "," << j;
        if (got == nullptr) {
          EXPECT_TRUE(node.table().backups(i, j).empty());
          continue;
        }
        EXPECT_EQ(*got, *first) << i << "," << j;
        // A storer holds each owner in one entry only: never a duplicate.
        EXPECT_TRUE(reverse[overlay.host_of(*got)].insert(x));

        std::vector<NodeId> offered;
        for (const NodeId& extra : trie.some_with_suffix(want, backups + 1))
          if (extra != *got && offered.size() < backups)
            offered.push_back(extra);
        const auto stored = node.table().backups(i, j);
        EXPECT_EQ(std::vector<NodeId>(stored.begin(), stored.end()), offered)
            << i << "," << j;
      }
    }
  }

  for (std::size_t h = 0; h < ids.size(); ++h) {
    const FlatNodeSet& got = overlay.nodes()[h]->table().reverse_neighbors();
    EXPECT_TRUE(std::equal(got.begin(), got.end(), reverse[h].begin(),
                           reverse[h].end()))
        << "reverse set of host " << h;
    EXPECT_EQ(got.bytes_used(), sizeof(NodeId) * got.size())
        << "reverse set of host " << h << " is not at rest";
  }

  const auto report = testing::audit(overlay);
  EXPECT_TRUE(report.consistent()) << report.summary(params);
}

TEST(BuildConsistentNetwork, MatchesPerEntryReference) {
  for (const Shape& shape : kShapes) check_against_reference(shape, 0);
}

TEST(BuildConsistentNetwork, MatchesPerEntryReferenceWithBackups) {
  for (const Shape& shape : kShapes) check_against_reference(shape, 2);
}

}  // namespace
}  // namespace hcube
