// Suffix trie over node IDs.
//
// A digit trie keyed on the RIGHTMOST digits of IDs: depth-t edges consume
// digit(t). It answers "does any node with suffix ω exist?", "how many?",
// "give me one / all of them" in O(|ω|) — exactly the V_ω suffix-set queries
// of the paper (Table 1). Used by:
//   - the consistency checker (ground truth for Definition 3.8),
//   - the direct consistent-network builder,
//   - notification-set computation (Definition 3.4) and C-set trees.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "ids/node_id.h"

namespace hcube {

class SuffixTrie {
 public:
  explicit SuffixTrie(IdParams params);

  const IdParams& params() const { return params_; }

  // Inserts an ID; returns false (and leaves the trie unchanged) if the
  // exact ID was already present.
  bool insert(const NodeId& id);

  std::size_t size() const { return ids_.size(); }
  const std::vector<NodeId>& ids() const { return ids_; }

  // Number of inserted IDs with the given suffix (|V_ω|).
  std::size_t count_with_suffix(std::span<const Digit> suffix) const;
  bool contains_suffix(std::span<const Digit> suffix) const {
    return count_with_suffix(suffix) > 0;
  }
  bool contains(const NodeId& id) const {
    return contains_suffix(id.digits());
  }

  // An arbitrary (deterministic: first-inserted) ID with the suffix.
  std::optional<NodeId> any_with_suffix(std::span<const Digit> suffix) const;

  // All IDs with the suffix, ordered by digit sequence (LSB-first).
  std::vector<NodeId> all_with_suffix(std::span<const Digit> suffix) const;

  // Up to max_count IDs with the suffix (digit-order DFS, early-stopped).
  std::vector<NodeId> some_with_suffix(std::span<const Digit> suffix,
                                       std::size_t max_count) const;

  // The insertion index of every ID, sorted by the IDs' LSB-first digit
  // strings: the trie's depth-first leaf order. Consecutive IDs in this
  // order share the longest possible trie path, and so the candidates
  // for_each_entry_candidate hands them.
  std::vector<std::uint32_t> suffix_order() const;

  // Walks down x's own digit path from the root; at each depth i reached,
  // calls fn(i, j, first) for every child digit j of the depth-i trie node,
  // where `first` is the first-inserted ID with suffix j . x[i-1..0]. This
  // enumerates, in O(d + total children), exactly the non-empty table
  // entries (i, j) that a consistent table for x must fill. The walk follows
  // x's digits as far as they exist in the trie (all the way when x itself
  // is inserted).
  void for_each_entry_candidate(
      const NodeId& x,
      const std::function<void(std::size_t level, Digit digit,
                               const NodeId& first)>& fn) const;

  // The length k of the suffix defining x's notification set w.r.t. this
  // set V (Definition 3.4): the largest k with V_{x[k-1..0]} != empty and
  // V_{x[k]...x[0]} = empty. Returns 0 when no node shares x's rightmost
  // digit (then the notification set is all of V). Precondition: x itself
  // is not in the trie.
  std::size_t notify_suffix_len(const NodeId& x) const;

 private:
  struct TrieNode {
    // Sorted-by-digit child list; b <= 256 and fan-out shrinks fast with
    // depth, so a flat vector beats a per-node array or hash map.
    std::vector<std::pair<Digit, std::uint32_t>> children;
    std::uint32_t count = 0;           // IDs in this subtree
    std::uint32_t first_id = UINT32_MAX;  // first inserted ID index
  };

  std::uint32_t child(std::uint32_t node, Digit d) const;  // UINT32_MAX if none
  std::uint32_t walk(std::span<const Digit> suffix) const;  // UINT32_MAX if none
  void collect(std::uint32_t node, std::size_t depth, std::size_t max_count,
               std::vector<NodeId>& out) const;
  void collect_order(std::uint32_t node, std::size_t depth,
                     std::vector<std::uint32_t>& out) const;

  IdParams params_;
  std::vector<TrieNode> nodes_;   // nodes_[0] is the root
  std::vector<NodeId> ids_;
};

}  // namespace hcube
