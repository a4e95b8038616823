#include "ids/suffix_trie.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "test_util.h"

namespace hcube {
namespace {

using testing::id_of;
using testing::make_ids;

const IdParams kOct5{8, 5};

TEST(SuffixTrie, InsertAndCount) {
  SuffixTrie trie(kOct5);
  EXPECT_TRUE(trie.insert(id_of("10261", kOct5)));
  EXPECT_TRUE(trie.insert(id_of("00261", kOct5)));
  EXPECT_TRUE(trie.insert(id_of("47051", kOct5)));
  EXPECT_FALSE(trie.insert(id_of("10261", kOct5)));  // duplicate
  EXPECT_EQ(trie.size(), 3u);

  EXPECT_EQ(trie.count_with_suffix(Suffix{}), 3u);
  EXPECT_EQ(trie.count_with_suffix(Suffix{1}), 3u);        // *1
  EXPECT_EQ(trie.count_with_suffix(Suffix{1, 6}), 2u);     // *61
  EXPECT_EQ(trie.count_with_suffix(Suffix{1, 6, 2}), 2u);  // *261
  EXPECT_EQ(trie.count_with_suffix(Suffix{1, 5}), 1u);     // *51
  EXPECT_EQ(trie.count_with_suffix(Suffix{2}), 0u);
}

TEST(SuffixTrie, Contains) {
  SuffixTrie trie(kOct5);
  trie.insert(id_of("10261", kOct5));
  EXPECT_TRUE(trie.contains(id_of("10261", kOct5)));
  EXPECT_FALSE(trie.contains(id_of("10262", kOct5)));
  EXPECT_TRUE(trie.contains_suffix(Suffix{1, 6}));
  EXPECT_FALSE(trie.contains_suffix(Suffix{2, 6}));
}

TEST(SuffixTrie, AnyWithSuffixReturnsFirstInserted) {
  SuffixTrie trie(kOct5);
  trie.insert(id_of("10261", kOct5));
  trie.insert(id_of("00261", kOct5));
  const auto any = trie.any_with_suffix(Suffix{1, 6, 2});
  ASSERT_TRUE(any.has_value());
  EXPECT_EQ(*any, id_of("10261", kOct5));
  EXPECT_FALSE(trie.any_with_suffix(Suffix{7}).has_value());
}

TEST(SuffixTrie, AllWithSuffix) {
  SuffixTrie trie(kOct5);
  trie.insert(id_of("10261", kOct5));
  trie.insert(id_of("00261", kOct5));
  trie.insert(id_of("47051", kOct5));
  auto all = trie.all_with_suffix(Suffix{1, 6, 2});
  ASSERT_EQ(all.size(), 2u);
  EXPECT_NE(std::find(all.begin(), all.end(), id_of("10261", kOct5)),
            all.end());
  EXPECT_NE(std::find(all.begin(), all.end(), id_of("00261", kOct5)),
            all.end());
  EXPECT_EQ(trie.all_with_suffix(Suffix{}).size(), 3u);
}

TEST(SuffixTrie, SuffixOrderSortsInsertionIndicesByLsbFirstDigits) {
  SuffixTrie trie(kOct5);
  trie.insert(id_of("10261", kOct5));  // LSB-first 16201
  trie.insert(id_of("00261", kOct5));  // LSB-first 16200
  trie.insert(id_of("47051", kOct5));  // LSB-first 15074
  EXPECT_EQ(trie.suffix_order(), (std::vector<std::uint32_t>{2, 1, 0}));

  const auto ids = make_ids(kOct5, 500, 17);
  SuffixTrie big(kOct5);
  for (const NodeId& id : ids) big.insert(id);
  std::vector<std::uint32_t> expect(ids.size());
  for (std::uint32_t k = 0; k < expect.size(); ++k) expect[k] = k;
  std::sort(expect.begin(), expect.end(), [&](std::uint32_t a, std::uint32_t b) {
    const auto da = ids[a].digits();
    const auto db = ids[b].digits();
    return std::lexicographical_compare(da.begin(), da.end(), db.begin(),
                                        db.end());
  });
  EXPECT_EQ(big.suffix_order(), expect);
}

TEST(SuffixTrie, NotifySuffixLenMatchesDefinition34) {
  // V = {72430, 10353, 62332, 13141, 31701} (the paper's example).
  SuffixTrie trie(kOct5);
  for (const char* s : {"72430", "10353", "62332", "13141", "31701"})
    trie.insert(id_of(s, kOct5));
  // 10261: V_1 != 0 (three IDs end in 1), V_61 = 0 -> k = 1.
  EXPECT_EQ(trie.notify_suffix_len(id_of("10261", kOct5)), 1u);
  // 67320: V_0 != 0 (72430), V_20 = 0 -> k = 1.
  EXPECT_EQ(trie.notify_suffix_len(id_of("67320", kOct5)), 1u);
  // 11445: no ID ends in 5 -> k = 0 (notification set is V itself).
  EXPECT_EQ(trie.notify_suffix_len(id_of("11445", kOct5)), 0u);
  // 10341: V_41 != 0 (13141), V_341 = 0 -> k = 2.
  EXPECT_EQ(trie.notify_suffix_len(id_of("10341", kOct5)), 2u);
}

TEST(SuffixTrie, CountsAgreeWithBruteForce) {
  const IdParams params{4, 6};
  auto ids = make_ids(params, 300, 77);
  SuffixTrie trie(params);
  for (const auto& id : ids) trie.insert(id);

  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t len = rng.next_below(7);
    Suffix suffix(len);
    for (auto& d : suffix) d = static_cast<Digit>(rng.next_below(4));
    std::size_t brute = 0;
    for (const auto& id : ids)
      if (id.has_suffix(suffix)) ++brute;
    EXPECT_EQ(trie.count_with_suffix(suffix), brute)
        << "suffix " << suffix_to_string(suffix, params);
  }
}

TEST(SuffixTrie, ForEachEntryCandidateEnumeratesConsistentEntries) {
  const IdParams params{4, 6};
  auto ids = make_ids(params, 120, 13);
  SuffixTrie trie(params);
  for (const auto& id : ids) trie.insert(id);

  const NodeId& x = ids[7];
  // Collect candidates via the walk.
  std::map<std::pair<std::size_t, Digit>, NodeId> walked;
  trie.for_each_entry_candidate(
      x, [&](std::size_t level, Digit j, const NodeId& first) {
        EXPECT_TRUE(walked.emplace(std::make_pair(level, j), first).second);
      });

  // Brute force: entry (i, j) should be offered iff some member has suffix
  // j . x[i-1..0], and the offered node must have that suffix.
  for (std::size_t i = 0; i < params.num_digits; ++i) {
    for (Digit j = 0; j < 4; ++j) {
      Suffix want = x.suffix_of_len(i);
      want.push_back(j);
      const bool exists = std::any_of(
          ids.begin(), ids.end(),
          [&](const NodeId& id) { return id.has_suffix(want); });
      const auto it = walked.find({i, j});
      EXPECT_EQ(it != walked.end(), exists)
          << "level " << i << " digit " << int(j);
      if (it != walked.end()) {
        EXPECT_TRUE(it->second.has_suffix(want));
      }
    }
  }
}

TEST(SuffixTrie, NotifySuffixLenZeroWhenNoSharedDigit) {
  const IdParams params{4, 4};
  SuffixTrie trie(params);
  trie.insert(id_of("1230", params));
  EXPECT_EQ(trie.notify_suffix_len(id_of("0001", params)), 0u);
}

}  // namespace
}  // namespace hcube
