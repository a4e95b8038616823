#include "ids/suffix_trie.h"

#include <algorithm>

namespace hcube {

SuffixTrie::SuffixTrie(IdParams params) : params_(params) {
  params_.validate();
  nodes_.emplace_back();  // root
}

std::uint32_t SuffixTrie::child(std::uint32_t node, Digit d) const {
  const auto& ch = nodes_[node].children;
  auto it = std::lower_bound(
      ch.begin(), ch.end(), d,
      [](const auto& pair, Digit key) { return pair.first < key; });
  if (it != ch.end() && it->first == d) return it->second;
  return UINT32_MAX;
}

bool SuffixTrie::insert(const NodeId& id) {
  HCUBE_CHECK(id.num_digits() == params_.num_digits);
  // First pass: detect exact duplicates without mutating.
  if (contains(id)) return false;

  const auto id_index = static_cast<std::uint32_t>(ids_.size());
  ids_.push_back(id);

  std::uint32_t cur = 0;
  auto bump = [&](std::uint32_t node) {
    ++nodes_[node].count;
    if (nodes_[node].first_id == UINT32_MAX) nodes_[node].first_id = id_index;
  };
  bump(0);
  for (std::size_t depth = 0; depth < params_.num_digits; ++depth) {
    const Digit dg = id.digit(depth);
    std::uint32_t next = child(cur, dg);
    if (next == UINT32_MAX) {
      next = static_cast<std::uint32_t>(nodes_.size());
      nodes_.emplace_back();
      auto& ch = nodes_[cur].children;
      auto it = std::lower_bound(
          ch.begin(), ch.end(), dg,
          [](const auto& pair, Digit key) { return pair.first < key; });
      ch.insert(it, {dg, next});
    }
    bump(next);
    cur = next;
  }
  return true;
}

std::uint32_t SuffixTrie::walk(std::span<const Digit> suffix) const {
  std::uint32_t cur = 0;
  for (Digit dg : suffix) {
    cur = child(cur, dg);
    if (cur == UINT32_MAX) return UINT32_MAX;
  }
  return cur;
}

std::size_t SuffixTrie::count_with_suffix(
    std::span<const Digit> suffix) const {
  const std::uint32_t node = walk(suffix);
  return node == UINT32_MAX ? 0 : nodes_[node].count;
}

std::optional<NodeId> SuffixTrie::any_with_suffix(
    std::span<const Digit> suffix) const {
  const std::uint32_t node = walk(suffix);
  if (node == UINT32_MAX) return std::nullopt;
  return ids_[nodes_[node].first_id];
}

void SuffixTrie::collect(std::uint32_t node, std::size_t depth,
                         std::size_t max_count,
                         std::vector<NodeId>& out) const {
  if (out.size() >= max_count) return;  // early stop at the cap
  if (depth == params_.num_digits) {
    out.push_back(ids_[nodes_[node].first_id]);
    return;
  }
  for (const auto& [dg, next] : nodes_[node].children)
    collect(next, depth + 1, max_count, out);
}

std::vector<NodeId> SuffixTrie::some_with_suffix(std::span<const Digit> suffix,
                                                 std::size_t max_count) const {
  std::vector<NodeId> out;
  if (max_count == 0) return out;
  const std::uint32_t node = walk(suffix);
  if (node == UINT32_MAX) return out;
  out.reserve(std::min<std::size_t>(max_count, nodes_[node].count));
  collect(node, suffix.size(), max_count, out);
  return out;
}

std::vector<NodeId> SuffixTrie::all_with_suffix(
    std::span<const Digit> suffix) const {
  std::vector<NodeId> out;
  const std::uint32_t node = walk(suffix);
  if (node == UINT32_MAX) return out;
  out.reserve(nodes_[node].count);
  collect(node, suffix.size(), nodes_[node].count, out);
  return out;
}

void SuffixTrie::collect_order(std::uint32_t node, std::size_t depth,
                               std::vector<std::uint32_t>& out) const {
  if (depth == params_.num_digits) {
    out.push_back(nodes_[node].first_id);
    return;
  }
  for (const auto& [dg, next] : nodes_[node].children)
    collect_order(next, depth + 1, out);
}

std::vector<std::uint32_t> SuffixTrie::suffix_order() const {
  std::vector<std::uint32_t> out;
  out.reserve(ids_.size());
  collect_order(0, 0, out);
  return out;
}

void SuffixTrie::for_each_entry_candidate(
    const NodeId& x,
    const std::function<void(std::size_t, Digit, const NodeId&)>& fn) const {
  std::uint32_t cur = 0;
  for (std::size_t level = 0; level < params_.num_digits; ++level) {
    for (const auto& [dg, next] : nodes_[cur].children)
      fn(level, dg, ids_[nodes_[next].first_id]);
    const std::uint32_t next = child(cur, x.digit(level));
    if (next == UINT32_MAX) break;
    cur = next;
  }
}

std::size_t SuffixTrie::notify_suffix_len(const NodeId& x) const {
  HCUBE_CHECK_MSG(!contains(x), "notify_suffix_len: x must not be in V");
  std::uint32_t cur = 0;
  std::size_t k = 0;
  while (k < params_.num_digits) {
    const std::uint32_t next = child(cur, x.digit(k));
    if (next == UINT32_MAX) break;
    cur = next;
    ++k;
  }
  return k;
}

}  // namespace hcube
